package schemes

import "gsfl/internal/registry"

// FactoryOpts carries the scheme-structure knobs a Factory may consume.
// Schemes ignore the fields that do not apply to them (only GSFL reads
// Groups/Strategy/Pipelined/DropoutProb today); a zero value is valid
// for every registered baseline.
type FactoryOpts struct {
	// Groups is M, the number of parallel GSFL groups.
	Groups int
	// Strategy names the registered grouping policy (canonical name or
	// alias; see internal/partition) assigning clients to groups. Empty
	// means the default, round-robin.
	Strategy string
	// Pipelined enables communication/computation overlap within each
	// client's turn (the "parallel design" of the paper's reference [2]):
	// after a one-step warm-up the turn advances at the pace of its
	// slowest stage instead of the sum of all stages. Training numerics
	// are unchanged; only latency pricing differs.
	Pipelined bool
	// DropoutProb is the per-round probability that a client is
	// unavailable (battery, mobility, deep outage). Unavailable clients
	// are skipped; their group trains with whoever remains, and a group
	// whose clients all drop sits the round out (it is excluded from that
	// round's aggregation). 0 disables failure injection.
	DropoutProb float64
}

// Factory instantiates one scheme over an environment. Registered
// factories must validate env and opts and return errors, not panic.
type Factory func(env *Env, opts FactoryOpts) (Trainer, error)

var factories = registry.New[Factory]("schemes", "scheme")

// Register adds a scheme factory under its name. The scheme packages
// self-register from their init functions, so importing a scheme (or
// the gsfl/sim facade, which imports all of them) makes it available by
// name. Register panics on an empty name, a nil factory, or a duplicate
// name — all programmer errors at init time.
func Register(name string, f Factory) { factories.Register(name, f) }

// Names returns the registered scheme names in sorted order.
func Names() []string { return factories.Names() }

// NewByName instantiates the named scheme over env. It is the single
// name-to-scheme resolution path; callers outside this module use the
// gsfl/sim facade instead.
func NewByName(name string, env *Env, opts FactoryOpts) (Trainer, error) {
	f, err := factories.Get(name)
	if err != nil {
		return nil, err
	}
	return f(env, opts)
}
