package sweep_test

import (
	"encoding/json"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sweep"
)

// TestWireJobForRetiredNumericCellRefused replays the job an older
// coordinator sent for the catalogue's fast-kernel cell: the base gsfl
// cell with "numeric":"fast" in its spec, under the ID such a
// coordinator derived for it. The field no longer exists, so the spec
// decodes to the base cell; the worker must refuse the job rather than
// train exact kernels under the fast cell's identity.
func TestWireJobForRetiredNumericCellRefused(t *testing.T) {
	const baseID, fastID = "4f4917f2affe18bb", "86f4ba5b876490ca"
	jobs := jobsOf(t, sweep.Grid{Name: "numeric", Base: env.TestSpec(), Rounds: 3, EvalEvery: 2})
	if len(jobs) != 1 || jobs[0].ID != baseID {
		t.Fatalf("base gsfl cell expanded to %+v, want one job %s", jobs, baseID)
	}
	wire, err := sweep.MarshalJobWire(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(wire, &fields); err != nil {
		t.Fatal(err)
	}
	fields["spec"] = append([]byte(`{"numeric":"fast",`), fields["spec"][1:]...)
	fields["id"] = json.RawMessage(`"` + fastID + `"`)
	fields["name"] = json.RawMessage(`"numeric/numeric=fast"`)
	old, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}

	j, err := sweep.UnmarshalJobWire(old)
	want := "claims ID " + fastID + " but hashes to " + baseID
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("UnmarshalJobWire = %+v, %v; want an error containing %q", j, err, want)
	}
}
