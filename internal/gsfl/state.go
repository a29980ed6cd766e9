package gsfl

import "gsfl/internal/schemes"

func init() {
	schemes.Register(gsflPlan.scheme, func(env *schemes.Env, opts schemes.FactoryOpts) (schemes.Trainer, error) {
		return newWithPlan(env, opts, gsflPlan)
	})
	// The baselines take nothing from the options: their M is fixed by
	// the plan, and the zero options are identity-order (round-robin)
	// grouping with no dropout and no pipelining.
	for _, p := range []plan{slPlan, sflPlan, flPlan} {
		schemes.Register(p.scheme, func(env *schemes.Env, _ schemes.FactoryOpts) (schemes.Trainer, error) {
			return newWithPlan(env, schemes.FactoryOpts{}, p)
		})
	}
}

// StateParts implements schemes.Checkpointer. The engine's persistent
// state is the two aggregated global halves (replica parameters are
// rewritten from them every round, so they are derived, not state), the
// per-group optimizer pairs, the per-client loaders, the round counter
// (which keys the dropout and population streams), and the channel
// cursor. Optimizer slots cover the full configured group count
// (clientOpts), not t.groups, which the population path re-slices per
// round. At M=1 and M=N this is the layout the former sl and sfl
// trainers wrote, so their checkpoints restore here unchanged; a local
// plan's server half is empty and lists nothing, which is the layout the
// former fl trainer wrote.
func (t *Trainer) StateParts() schemes.StateParts {
	p := schemes.StateParts{
		Scheme:          t.plan.scheme,
		Round:           &t.round,
		Channel:         t.env.Channel,
		Models:          []schemes.ModelPart{{Net: t.evalModel.Client, Snap: &t.globalClient}},
		Loaders:         t.loaders,
		ReplayedLoaders: t.env.Pop != nil,
	}
	if t.plan.local {
		p.Opts = t.clientOpts
		return p
	}
	p.Models = append(p.Models, schemes.ModelPart{Net: t.evalModel.Server, Snap: &t.globalServer})
	for g := range t.clientOpts {
		p.Opts = append(p.Opts, t.clientOpts[g], t.serverOpts[g])
	}
	return p
}
