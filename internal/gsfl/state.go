package gsfl

import "gsfl/internal/schemes"

func init() {
	schemes.Register("gsfl", func(env *schemes.Env, opts schemes.FactoryOpts) (schemes.Trainer, error) {
		return New(env, Config{
			NumGroups:   opts.Groups,
			Strategy:    opts.Strategy,
			Pipelined:   opts.Pipelined,
			DropoutProb: opts.DropoutProb,
		})
	})
}

// StateParts implements schemes.Checkpointer. GSFL's persistent state is
// the two aggregated global halves (replica parameters are rewritten
// from them every round, so they are derived, not state), the per-group
// optimizer pairs, the per-client loaders, the round counter (which keys
// the dropout and population streams), and the channel cursor. Optimizer
// slots cover the full configured group count (clientOpts), not
// t.groups, which the population path re-slices per round.
func (t *Trainer) StateParts() schemes.StateParts {
	p := schemes.StateParts{
		Scheme:  "gsfl",
		Round:   &t.round,
		Channel: t.env.Channel,
		Models: []schemes.ModelPart{
			{Net: t.evalModel.Client, Snap: &t.globalClient},
			{Net: t.evalModel.Server, Snap: &t.globalServer},
		},
		Loaders:         t.loaders,
		ReplayedLoaders: t.env.Pop != nil,
	}
	for g := range t.clientOpts {
		p.Opts = append(p.Opts, t.clientOpts[g], t.serverOpts[g])
	}
	return p
}
