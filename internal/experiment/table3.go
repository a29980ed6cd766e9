package experiment

import (
	"gsfl/env"
	"gsfl/internal/gsfl"
	"gsfl/internal/trace"
)

// RunTable3 regenerates the server-storage comparison from §I: the edge
// server hosts M server-side replicas under GSFL versus N under SplitFed.
// It runs no training rounds: the catalogue's "table3" entry has no grids
// and calls this from its Save.
func RunTable3(spec Spec) (*trace.Table, error) {
	world, err := env.Build(spec)
	if err != nil {
		return nil, err
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		return nil, err
	}
	tbl := trace.NewTable("table3-server-storage",
		"scheme", "server_replicas", "server_storage_bytes")
	// SplitFed is the engine at M = N. No round runs, so the two
	// trainers can share the world.
	for _, row := range []struct {
		scheme string
		groups int
	}{{"gsfl", spec.Groups}, {"sfl", spec.Clients}} {
		tr, err := gsfl.New(world, gsfl.Config{NumGroups: row.groups, Strategy: opts.Strategy})
		if err != nil {
			return nil, err
		}
		tbl.Add(trace.Row{
			"scheme":               row.scheme,
			"server_replicas":      tr.ServerReplicaCount(),
			"server_storage_bytes": tr.ServerStorageBytes(),
		})
	}
	return tbl, nil
}
