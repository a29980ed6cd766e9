package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gsfl/internal/tensor"
)

func TestSplitEquivalenceAtEveryCut(t *testing.T) {
	// The split model's two-stage forward must equal the unsplit forward
	// for every possible cut index — the core split-learning invariant.
	arch := GTSRBCNN(16, 7)
	x := tensor.New(3, 3, 16, 16).RandNormal(rand.New(rand.NewSource(5)), 0, 1)

	ref := arch.NewSplit(rand.New(rand.NewSource(42)), 0)
	want := ref.Forward(x, false)

	nLayers := len(arch.Build(rand.New(rand.NewSource(0))))
	for cut := 0; cut <= nLayers; cut++ {
		m := arch.NewSplit(rand.New(rand.NewSource(42)), cut) // same init seed
		got := m.Forward(x, false)
		if !tensor.AllClose(got, want, 1e-9) {
			t.Fatalf("cut %d: split forward differs from unsplit", cut)
		}
	}
}

func TestSmashedShapeMatchesClientOutput(t *testing.T) {
	arch := GTSRBCNN(16, 5)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), GTSRBCNNDefaultCut)
	x := tensor.New(2, 3, 16, 16)
	smashed := m.Client.Forward(x, false)
	want := m.SmashedShape()
	got := smashed.Shape()[1:]
	if len(got) != len(want) {
		t.Fatalf("smashed shape %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("smashed shape %v, want %v", got, want)
		}
	}
}

func TestByteAccounting(t *testing.T) {
	arch := MLP(10, 6, 3)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	// Client: dense(10->6) = 66 params; server: dense(6->3) = 21 params.
	if got := m.ClientParamBytes(); got != 66*WireBytesPerScalar {
		t.Fatalf("ClientParamBytes = %d, want %d", got, 66*WireBytesPerScalar)
	}
	if got := m.Server.ParamCount(); got != 21 {
		t.Fatalf("server params = %d, want 21", got)
	}
	// Cut after the last layer (FL): the client half is the whole model.
	full := arch.NewSplit(rand.New(rand.NewSource(1)), len(arch.Build(rand.New(rand.NewSource(0)))))
	if got := full.ClientParamBytes(); got != 87*WireBytesPerScalar {
		t.Fatalf("ClientParamBytes at full depth = %d, want %d", got, 87*WireBytesPerScalar)
	}
	// Smashed data: 6 activations + 1 label per sample.
	if got := m.SmashedBytes(4); got != 4*7*WireBytesPerScalar {
		t.Fatalf("SmashedBytes(4) = %d", got)
	}
	if got := m.GradBytesWith(4, WireBytesPerScalar); got != 4*6*WireBytesPerScalar {
		t.Fatalf("GradBytesWith(4) = %d", got)
	}
}

func TestCutMonotonicity(t *testing.T) {
	// Deeper cuts move parameters from server to client; totals constant.
	arch := GTSRBCNN(16, 43)
	layers := len(arch.Build(rand.New(rand.NewSource(0))))
	prevClient := int64(-1)
	var total int64
	for cut := 0; cut <= layers; cut++ {
		m := arch.NewSplit(rand.New(rand.NewSource(1)), cut)
		cb := m.ClientParamBytes()
		if cb < prevClient {
			t.Fatalf("client bytes decreased at cut %d", cut)
		}
		prevClient = cb
		tt := cb + int64(m.Server.ParamCount())*WireBytesPerScalar
		if total == 0 {
			total = tt
		}
		if tt != total {
			t.Fatalf("total bytes changed with cut: %d vs %d", tt, total)
		}
	}
}

func TestFLOPsPositiveAndAdditive(t *testing.T) {
	arch := GTSRBCNN(16, 10)
	full := arch.NewSplit(rand.New(rand.NewSource(1)), 0)
	wholeFLOPs := full.ServerFwdFLOPs() // cut 0: everything server-side
	for cut := 0; cut <= 10; cut++ {
		m := arch.NewSplit(rand.New(rand.NewSource(1)), cut)
		c, s := m.ClientFwdFLOPs(), m.ServerFwdFLOPs()
		if c < 0 || s < 0 {
			t.Fatalf("negative FLOPs at cut %d", cut)
		}
		if c+s != wholeFLOPs {
			t.Fatalf("cut %d: client+server FLOPs %d != whole %d", cut, c+s, wholeFLOPs)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	arch := MLP(8, 5, 3)
	m1 := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	m2 := arch.NewSplit(rand.New(rand.NewSource(2)), MLPDefaultCut)

	snap := TakeSnapshot(m1.Client)
	snap.Restore(m2.Client)

	x := tensor.New(4, 8).RandNormal(rand.New(rand.NewSource(3)), 0, 1)
	y1 := m1.Client.Forward(x, false)
	y2 := m2.Client.Forward(x, false)
	if !tensor.AllClose(y1, y2, 1e-12) {
		t.Fatal("restored client model behaves differently")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	arch := MLP(4, 3, 2)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	snap := TakeSnapshot(m.Client)
	// Mutate the live model; the snapshot must not change.
	m.Client.Params()[0].Fill(123)
	if snap.Tensors[0].Data[0] == 123 {
		t.Fatal("snapshot aliases live parameters")
	}
}

func TestSnapshotCloneIndependent(t *testing.T) {
	arch := MLP(4, 3, 2)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	a := TakeSnapshot(m.Client)
	b := a.Clone()
	b.Tensors[0].Fill(7)
	if a.Tensors[0].Data[0] == 7 {
		t.Fatal("Clone aliases the original")
	}
}

func TestL2DistanceProperties(t *testing.T) {
	arch := MLP(6, 4, 2)
	m1 := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	m2 := arch.NewSplit(rand.New(rand.NewSource(2)), MLPDefaultCut)
	a := TakeSnapshot(m1.Client)
	b := TakeSnapshot(m2.Client)
	if d := a.L2Distance(a); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
	if d1, d2 := a.L2Distance(b), b.L2Distance(a); d1 != d2 {
		t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
	}
	if a.L2Distance(b) <= 0 {
		t.Fatal("distinct snapshots at distance 0")
	}
}

func TestSnapshotWireBytes(t *testing.T) {
	arch := MLP(10, 6, 3)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), MLPDefaultCut)
	snap := TakeSnapshot(m.Client)
	if got := snap.WireBytes(); got != m.ClientParamBytes() {
		t.Fatalf("snapshot wire bytes %d != client param bytes %d", got, m.ClientParamBytes())
	}
}

func TestInvalidCutPanics(t *testing.T) {
	arch := MLP(4, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range cut")
		}
	}()
	arch.NewSplit(rand.New(rand.NewSource(1)), 99)
}

func TestArchValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("gtsrb size", func() { GTSRBCNN(15, 43) })
	mustPanic("gtsrb classes", func() { GTSRBCNN(16, 1) })
	mustPanic("mlp", func() { MLP(0, 4, 2) })
	mustPanic("deepthin", func() { DeepThinCNN(1, 10, 43) })
}

func TestDeepThinBuilds(t *testing.T) {
	arch := DeepThinCNN(7, 16, 43)
	m := arch.NewSplit(rand.New(rand.NewSource(1)), 4)
	x := tensor.New(2, 3, 16, 16).RandNormal(rand.New(rand.NewSource(2)), 0, 1)
	y := m.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 43 {
		t.Fatalf("deepthin output shape %v", y.Shape())
	}
}

// prop: snapshot restore is idempotent — restoring twice equals once.
func TestPropSnapshotRestoreIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		arch := MLP(5, 4, 3)
		src := arch.NewSplit(rand.New(rand.NewSource(seed)), MLPDefaultCut)
		dst := arch.NewSplit(rand.New(rand.NewSource(seed+1)), MLPDefaultCut)
		snap := TakeSnapshot(src.Client)
		snap.Restore(dst.Client)
		once := TakeSnapshot(dst.Client)
		snap.Restore(dst.Client)
		twice := TakeSnapshot(dst.Client)
		return once.L2Distance(twice) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedCostsMatchTheLayers: NewSplit prices a split once, so the
// cached per-sample costs must equal what walking the halves' layers
// gives, for every registered architecture at every cut — a new layer or
// arch cannot drift from the cache.
func TestCachedCostsMatchTheLayers(t *testing.T) {
	for _, name := range ArchNames() {
		arch, err := NewArch(name, ArchConfig{ImageSize: 8, Classes: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		layers := len(arch.Build(rand.New(rand.NewSource(0))))
		for cut := 0; cut <= layers; cut++ {
			m := arch.NewSplit(rand.New(rand.NewSource(1)), cut)
			smashed := m.Client.OutShape(arch.InShape)
			per := int64(1)
			for _, d := range smashed {
				per *= int64(d)
			}
			for _, batch := range []int{1, 16} {
				for _, width := range []int{1, WireBytesPerScalar} {
					b, w := int64(batch), int64(width)
					if got, want := m.SmashedBytesWith(batch, width), b*(per+1)*w; got != want {
						t.Errorf("%s cut %d: SmashedBytesWith(%d, %d) = %d, layers give %d", name, cut, batch, width, got, want)
					}
					if got, want := m.GradBytesWith(batch, width), b*per*w; got != want {
						t.Errorf("%s cut %d: GradBytesWith(%d, %d) = %d, layers give %d", name, cut, batch, width, got, want)
					}
				}
			}
			if got, want := m.ClientFwdFLOPs(), m.Client.FwdFLOPs(arch.InShape); got != want {
				t.Errorf("%s cut %d: ClientFwdFLOPs = %d, layers give %d", name, cut, got, want)
			}
			if got, want := m.ServerFwdFLOPs(), m.Server.FwdFLOPs(smashed); got != want {
				t.Errorf("%s cut %d: ServerFwdFLOPs = %d, layers give %d", name, cut, got, want)
			}
			if got, want := m.ClientParamBytes(), int64(m.Client.ParamCount())*WireBytesPerScalar; got != want {
				t.Errorf("%s cut %d: ClientParamBytes = %d, layers give %d", name, cut, got, want)
			}
		}
	}
}
