// Package atomicfile is the single durable-write path, and so the crash
// harness's one seam. A file the repo writes whole or not at all — a
// sim checkpoint at a user-named path, the compacted manifest — goes
// through Write: a temp file renamed over the name. A file the repo
// holds open and rewrites in place — a sweep store's checkpoint slots —
// goes through Overwrite, whose torn states the reader tells apart by
// the checksum the file's head stores (see sweep.Store).
package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// boundary is a point of Write or Overwrite after which a crash leaves
// a distinct state on disk.
type boundary int

// Write's boundaries.
const (
	tempCreated boundary = iota
	halfWritten
	allWritten
	closed
	renamed
)

// Overwrite's boundaries: halfWritten and allWritten (of the body)
// between beforeWrite and cut, then the head's two.
const (
	beforeWrite boundary = renamed + 1 + iota
	cut
	headHalfWritten
	headWritten
)

// crashAt is the crash harness's seam, nil outside tests: Write and
// Overwrite ask it after every boundary whether the process dies there
// and, told yes, return errCrashed at once, leaving the disk as kill -9
// would — a temp file where it is, a file half rewritten, nothing
// cleaned up.
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
	if err := writeHalves(tmp, path, data, halfWritten, allWritten); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if crashed(path, closed) {
		return errCrashed
	}
	return os.Rename(tmp.Name(), path)
}

// Overwrite rewrites the open file f, which holds size bytes, to hold
// head followed by body: body goes at offset len(head), the file is cut
// to its new length only when it held more, and head goes at offset 0
// last. Neither is copied. The file keeps its inode — no create, rename
// or unlink — and, head not being empty, is never truncated to zero, so
// ext4 has no replace to flush at once (auto_da_alloc). It is not
// atomic: a crash can leave any prefix of body over the old bytes, the
// old head over a new body, or a torn new head, and a reader must be
// able to tell those states from a whole write — the head is where a
// caller puts what tells them apart.
func Overwrite(f *os.File, size int64, head, body []byte) error {
	path := f.Name()
	if crashed(path, beforeWrite) {
		return errCrashed
	}
	if err := writeHalves(io.NewOffsetWriter(f, int64(len(head))), path, body, halfWritten, allWritten); err != nil {
		return err
	}
	if n := int64(len(head) + len(body)); size > n {
		if err := f.Truncate(n); err != nil {
			return err
		}
	}
	if crashed(path, cut) {
		return errCrashed
	}
	return writeHalves(io.NewOffsetWriter(f, 0), path, head, headHalfWritten, headWritten)
}

// writeHalves writes data to w, in two writes under the harness so that
// a crash can land between them, at half, and after them, at all.
func writeHalves(w io.Writer, path string, data []byte, half, all boundary) error {
	if crashAt != nil {
		mid := len(data) / 2
		if _, err := w.Write(data[:mid]); err != nil {
			return err
		}
		if crashed(path, half) {
			return errCrashed
		}
		data = data[mid:]
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	if crashed(path, all) {
		return errCrashed
	}
	return nil
}
