package experiment

import (
	"gsfl/env"
	"gsfl/internal/gsfl"
	"gsfl/internal/schemes"
)

// RunTable3 regenerates the server-storage comparison from §I: the edge
// server hosts M server-side replicas under GSFL versus N under SplitFed.
// It runs no training rounds: the catalogue's "table3" entry has no grids
// and its Rows is this, one (scheme, server_replicas,
// server_storage_bytes) row per scheme.
func RunTable3(spec Spec) ([][]any, error) {
	world, err := env.Build(spec)
	if err != nil {
		return nil, err
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		return nil, err
	}
	// SplitFed is the engine at M = N. No round runs, so the two
	// trainers can share the world.
	var rows [][]any
	for _, row := range []struct {
		scheme string
		groups int
	}{{"gsfl", spec.Groups}, {"sfl", spec.Clients}} {
		tr, err := gsfl.New(world, schemes.FactoryOpts{Groups: row.groups, Strategy: opts.Strategy})
		if err != nil {
			return nil, err
		}
		rows = append(rows, []any{row.scheme, tr.ServerReplicaCount(), tr.ServerStorageBytes()})
	}
	return rows, nil
}
