package atomicfile_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/internal/atomicfile"
)

// TestStoreNeverReplacesTransientFile is the property the store's layout
// exists for, stated without a filesystem that punishes its absence:
// through both drivers, no Write under ckpt/ renames onto a name that
// exists (a replace is what makes ext4 flush the new file at once; the
// compacted manifest is the one sanctioned replace), ckpt/ never holds
// more than two generations of the job, and it is empty once the job is
// recorded.
func TestStoreNeverReplacesTransientFile(t *testing.T) {
	j := crashJob(t)
	for _, drv := range drivers {
		t.Run(drv.name, func(t *testing.T) {
			dir := t.TempDir()
			renames := 0
			atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
				if filepath.Dir(path) != filepath.Join(dir, "ckpt") {
					return false
				}
				switch b {
				case atomicfile.Closed: // the rename is next
					renames++
					if _, err := os.Lstat(path); !os.IsNotExist(err) {
						t.Errorf("write of %s replaces a live file (%v)", filepath.Base(path), err)
					}
				case atomicfile.Renamed:
					rounds := map[int]bool{}
					for _, name := range ckptNames(t, dir) {
						if strings.HasPrefix(name, ".") {
							continue // a temp file
						}
						f, round := genOf(dir, filepath.Join(dir, "ckpt", name))
						if f == "" {
							t.Errorf("ckpt/ holds %s, not a generation file", name)
						}
						rounds[round] = true
					}
					if len(rounds) > 2 {
						t.Errorf("ckpt/ holds %d generations after %s landed: %v", len(rounds), filepath.Base(path), ckptNames(t, dir))
					}
				}
				return false
			})
			defer atomicfile.SetCrashAt(nil)
			store := openStore(t, dir)
			defer store.Close()
			if err := drv.run(t, j, store); err != nil {
				t.Fatal(err)
			}
			if renames != 2*savedBoundaries {
				t.Fatalf("saw %d writes under ckpt/, want %d", renames, 2*savedBoundaries)
			}
			if left := ckptNames(t, dir); len(left) != 0 {
				t.Fatalf("ckpt/ holds %v after the job was recorded", left)
			}
		})
	}
}
