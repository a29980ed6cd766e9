// Package atomicfile is the single durable-write path: every file the
// repo writes whole or not at all — a sim checkpoint at a user-named
// path and the compacted manifest, replaced in place; a sweep store's
// checkpoint and sidecar generations, each onto a name nothing holds —
// goes through Write, so a crash harness has one seam to cut.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// boundary is a point of Write after which a crash leaves a distinct
// state on disk.
type boundary int

const (
	tempCreated boundary = iota
	halfWritten
	allWritten
	closed
	renamed
)

// crashAt is the crash harness's seam, nil outside tests: Write asks it
// after every boundary whether the process dies there and, told yes,
// returns errCrashed at once, leaving the disk as kill -9 would — the
// temp file where it is, nothing cleaned up.
var crashAt func(path string, b boundary) bool

var errCrashed = errors.New("atomicfile: crashed by the test harness")

func crashed(path string, b boundary) bool { return crashAt != nil && crashAt(path, b) }

// Write replaces path with data, through a temp file (named by pattern,
// in path's directory) and a rename, so a reader or a crash sees the
// old bytes or the new, never a torn write. A write that fails removes
// its temp file; only a killed process leaves one behind.
func Write(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	if err := fill(tmp, path, data); err != nil {
		tmp.Close() // harmless when fill got as far as closing it
		if err != errCrashed {
			os.Remove(tmp.Name())
		}
		return err
	}
	if crashed(path, renamed) {
		return errCrashed
	}
	return nil
}

// fill writes data to tmp, closes it and renames it over path.
func fill(tmp *os.File, path string, data []byte) error {
	if crashed(path, tempCreated) {
		return errCrashed
	}
	if crashAt != nil {
		// Two writes under the harness, so a crash can land between them.
		half := len(data) / 2
		if _, err := tmp.Write(data[:half]); err != nil {
			return err
		}
		if crashed(path, halfWritten) {
			return errCrashed
		}
		data = data[half:]
	}
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if crashed(path, allWritten) {
		return errCrashed
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if crashed(path, closed) {
		return errCrashed
	}
	return os.Rename(tmp.Name(), path)
}
