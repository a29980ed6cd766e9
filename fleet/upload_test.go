package fleet_test

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"

	"gsfl/fleet"
	"gsfl/internal/transport"
	"gsfl/sweep"
)

// TestFleetBackToBackUploadsLandWhole: the coordinator writes an
// upload's checkpoint into its slot straight from the frame it read and
// keeps nothing of it. Two uploads sent back to back on one connection,
// the second before the first is acked, land in the one frame buffer in
// turn; each slot must still hold its own upload's bytes, and the
// handoff the store returns must be the later upload's exactly.
func TestFleetBackToBackUploadsLandWhole(t *testing.T) {
	// Evaluated only at its end, the job's checkpoints do not grow
	// with its curve, so the second frame reuses the first's buffer.
	g := testGrid()
	g.EvalEvery = g.Rounds
	job := jobsOf(t, g)[0]
	// The job's two saved boundaries, as its holder uploads them.
	var ups []transport.FleetProgress
	if _, err := sweep.RunLeased(context.Background(), job, 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(round int, ckpt []byte) error {
			ups = append(ups, transport.FleetProgress{JobID: job.ID, Round: round, Ckpt: bytes.Clone(ckpt)})
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 || len(ups[0].Ckpt) != len(ups[1].Ckpt) || bytes.Equal(ups[0].Ckpt, ups[1].Ckpt) {
		t.Fatalf("want two distinct checkpoints of one size, got %d uploads", len(ups))
	}

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := fleet.Serve("127.0.0.1:0", []sweep.Job{job}, store, fleet.Config{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, fc := rawWorker(t, c, "w")
	takeLease(t, fc)
	for _, up := range ups {
		if err := fc.WriteProgress(up); err != nil {
			t.Fatal(err)
		}
	}
	for _, up := range ups {
		kind, payload, err := fc.ReadFrame()
		if err != nil || kind != transport.FrameFleetHeartbeat {
			t.Fatalf("ack of round %d: kind %d err %v", up.Round, kind, err)
		}
		if ack, err := transport.DecodeFleetAck(payload); err != nil || !ack.OK {
			t.Fatalf("ack of round %d: %+v, %v", up.Round, ack, err)
		}
	}
	conn.Close()
	c.Close()

	// A fresh job's first boundary goes to slot a, its second to b,
	// each after the slot's 8-byte header.
	for k, up := range ups {
		got, err := os.ReadFile(filepath.Join(dir, "ckpt", job.ID+"."+"ab"[k:k+1]+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 8 || !bytes.Equal(got[8:], up.Ckpt) {
			t.Fatalf("slot %c does not hold round %d's upload", "ab"[k], up.Round)
		}
	}
	h, ok := store.LoadBoundary(job)
	if !ok || h.Round != ups[1].Round || !bytes.Equal(h.Ckpt, ups[1].Ckpt) {
		t.Fatalf("LoadBoundary = round %d (ok %v), want round %d's upload exactly", h.Round, ok, ups[1].Round)
	}
}

// TestFleetUploadContradictingItsFrameEndsTheConnection: the
// coordinator reads an upload's checkpoint header, and nothing past it,
// before it persists the bytes. A checkpoint whose header names another
// round than its frame, or another scheme than the leased job, or that
// has no header at all ends the worker's connection, and the store
// keeps nothing of it.
func TestFleetUploadContradictingItsFrameEndsTheConnection(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	job := jobs[0]
	ckptOf := map[string][]byte{}
	for _, j := range jobs[:2] {
		if _, err := sweep.RunLeased(context.Background(), j, 1, nil, sweep.LeaseCallbacks{
			OnCheckpoint: func(round int, ckpt []byte) error {
				if round == 1 {
					ckptOf[j.Scheme] = bytes.Clone(ckpt)
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	other := jobs[1].Scheme
	if other == job.Scheme || ckptOf[job.Scheme] == nil || ckptOf[other] == nil {
		t.Fatalf("want round-1 checkpoints of two schemes, got %d", len(ckptOf))
	}
	for _, tc := range []struct {
		name  string
		round int
		ckpt  []byte
	}{
		{"another round", 2, ckptOf[job.Scheme]},
		{"another scheme", 1, ckptOf[other]},
		{"no header", 1, []byte("not a checkpoint")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := sweep.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			c, err := fleet.Serve("127.0.0.1:0", []sweep.Job{job}, store, fleet.Config{CheckpointEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, fc := rawWorker(t, c, "w")
			takeLease(t, fc)
			if err := fc.WriteProgress(transport.FleetProgress{JobID: job.ID, Round: tc.round, Ckpt: tc.ckpt}); err != nil {
				t.Fatal(err)
			}
			if kind, _, err := fc.ReadFrame(); err == nil {
				t.Fatalf("the upload was answered (frame kind %d), want the connection ended", kind)
			}
			c.Close()
			if h, ok := store.LoadBoundary(job); ok {
				t.Fatalf("the store kept the upload as round %d's boundary", h.Round)
			}
		})
	}
}

// BenchmarkFleetUpload is one checkpoint upload over loopback, as a
// worker makes it at each round boundary: WriteProgress on the worker's
// end, then ReadFrame, DecodeFleetProgress and SaveBoundary on the
// coordinator's, and the ack back. The checkpoint is 267 KB, a
// fleet_grid job's; B/op counts both ends.
func BenchmarkFleetUpload(b *testing.B) {
	job := jobsOf(b, testGrid())[0]
	store, err := sweep.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	wconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer wconn.Close()
	cconn := <-accepted
	if cconn == nil {
		b.Fatal("accept failed")
	}
	defer cconn.Close()
	worker, coord := transport.NewFleetConn(wconn, 0), transport.NewFleetConn(cconn, 0)

	up := transport.FleetProgress{
		JobID: job.ID, Round: 1, HostSeconds: 0.5,
		Ckpt: bytes.Repeat([]byte{0x5A, 0xA5}, 267_000/2),
	}
	done := make(chan error, 1)
	b.SetBytes(int64(len(up.Ckpt)))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if err := worker.WriteProgress(up); err != nil {
				done <- err
				return
			}
			if _, _, err := worker.ReadFrame(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		_, payload, err := coord.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		msg, err := transport.DecodeFleetProgress(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.SaveBoundary(job, msg.Ckpt); err != nil {
			b.Fatal(err)
		}
		if err := coord.WriteAck(transport.FleetAck{OK: true}); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
