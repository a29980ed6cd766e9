package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gsfl/internal/nn"
	"gsfl/internal/tensor"
)

// TensorState is the gob-serializable form of one tensor.
type TensorState struct {
	Shape []int
	Data  []float64
}

// SnapshotState is the gob-serializable form of a model-half Snapshot;
// trainer checkpoints embed these for every model they carry.
type SnapshotState struct {
	Tensors []TensorState
}

// State converts the snapshot into its serializable form (deep copy).
func (sn Snapshot) State() SnapshotState {
	return SnapshotState{Tensors: toCheckpoint(sn)}
}

// StateOf captures a Sequential's parameters directly into serializable
// form. It copies each tensor exactly once, where the older
// TakeSnapshot(s).State() pattern copied twice; the trainer-state codec
// uses it for model halves that are trained in place.
func StateOf(s *nn.Sequential) SnapshotState {
	ps := s.Params()
	out := make([]TensorState, len(ps))
	for i, p := range ps {
		out[i] = TensorState{Shape: p.Shape(), Data: append([]float64(nil), p.Data...)}
	}
	return SnapshotState{Tensors: out}
}

// SnapshotFromState validates a serialized snapshot and rebuilds it.
func SnapshotFromState(st SnapshotState) (Snapshot, error) {
	return fromCheckpoint(st.Tensors)
}

// checkpointFile is the on-disk layout: a format version plus the
// client- and server-half parameters.
type checkpointFile struct {
	Version int
	Cut     int
	Client  []TensorState
	Server  []TensorState
}

// checkpointVersion guards against reading incompatible files.
const checkpointVersion = 1

// SaveCheckpoint writes both halves of the model to w.
func SaveCheckpoint(w io.Writer, client, server Snapshot, cut int) error {
	cf := checkpointFile{
		Version: checkpointVersion,
		Cut:     cut,
		Client:  toCheckpoint(client),
		Server:  toCheckpoint(server),
	}
	if err := gob.NewEncoder(w).Encode(cf); err != nil {
		return fmt.Errorf("model: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(r io.Reader) (client, server Snapshot, cut int, err error) {
	var cf checkpointFile
	if err := gob.NewDecoder(r).Decode(&cf); err != nil {
		return Snapshot{}, Snapshot{}, 0, fmt.Errorf("model: decoding checkpoint: %w", err)
	}
	if cf.Version != checkpointVersion {
		return Snapshot{}, Snapshot{}, 0, fmt.Errorf("model: checkpoint version %d, want %d", cf.Version, checkpointVersion)
	}
	c, err := fromCheckpoint(cf.Client)
	if err != nil {
		return Snapshot{}, Snapshot{}, 0, err
	}
	s, err := fromCheckpoint(cf.Server)
	if err != nil {
		return Snapshot{}, Snapshot{}, 0, err
	}
	return c, s, cf.Cut, nil
}

// SaveCheckpointFile writes a checkpoint to path, creating parent
// directories.
func SaveCheckpointFile(path string, client, server Snapshot, cut int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("model: creating checkpoint directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: creating checkpoint: %w", err)
	}
	defer f.Close()
	if err := SaveCheckpoint(f, client, server, cut); err != nil {
		return err
	}
	return f.Close()
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string) (client, server Snapshot, cut int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, Snapshot{}, 0, fmt.Errorf("model: opening checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

func toCheckpoint(s Snapshot) []TensorState {
	out := make([]TensorState, len(s.Tensors))
	for i, t := range s.Tensors {
		out[i] = TensorState{Shape: t.Shape(), Data: append([]float64(nil), t.Data...)}
	}
	return out
}

func fromCheckpoint(cs []TensorState) (Snapshot, error) {
	ts := make([]*tensor.Tensor, len(cs))
	for i, c := range cs {
		n := 1
		for _, d := range c.Shape {
			if d < 0 {
				return Snapshot{}, fmt.Errorf("model: checkpoint tensor %d has negative dimension", i)
			}
			n *= d
		}
		if n != len(c.Data) {
			return Snapshot{}, fmt.Errorf("model: checkpoint tensor %d shape %v does not match %d values", i, c.Shape, len(c.Data))
		}
		ts[i] = tensor.FromSlice(append([]float64(nil), c.Data...), c.Shape...)
	}
	return Snapshot{Tensors: ts}, nil
}
