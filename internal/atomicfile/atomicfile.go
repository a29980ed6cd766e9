// Package atomicfile is the single durable-write path: every file the
// repo replaces in place (sim checkpoints, progress sidecars, uploaded
// checkpoints, the compacted manifest) goes through Write, so a crash
// harness has one seam to cut.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what fill writes, through a temp file (named
// by pattern, in path's directory) and a rename, so a reader or a crash
// sees the old bytes or the new, never a torn write.
func Write(path, pattern string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
