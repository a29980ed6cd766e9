package atomicfile_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"gsfl/internal/atomicfile"
)

// TestStoreNeverReplacesTransientFile is the property the store's layout
// exists for, stated without a filesystem that punishes its absence.
// Through both drivers, while the job runs: nothing under ckpt/ is
// renamed over or unlinked (every slot file keeps the inode it was
// created as), a slot file that has held bytes is never cut to zero,
// ckpt/ holds slot files alone, and from the third boundary on every
// write goes through the two descriptors the store opened at the first
// two. Once the job is recorded, ckpt/ is empty.
func TestStoreNeverReplacesTransientFile(t *testing.T) {
	j := crashJob(t)
	for _, drv := range drivers {
		t.Run(drv.name, func(t *testing.T) {
			dir := t.TempDir()
			var (
				count  = &boundaryCounter{}
				inode  = map[string]uint64{} // slot file -> the inode it was created as
				filled = map[string]bool{}   // slot file -> has held bytes
				held   []string              // the descriptors open on ckpt/ at the third boundary
				writes int
			)
			atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
				if slotOf(dir, path) == "" {
					return false
				}
				round := count.round(b)
				if b == atomicfile.HeadWritten {
					writes++
				}
				names := ckptNames(t, dir)
				for _, name := range names {
					p := filepath.Join(dir, "ckpt", name)
					if slotOf(dir, p) == "" {
						t.Errorf("ckpt/ holds %s, not a slot file", name)
						continue
					}
					fi, err := os.Stat(p)
					if err != nil {
						t.Error(err)
						continue
					}
					ino := fi.Sys().(*syscall.Stat_t).Ino
					if prev, seen := inode[name]; seen && prev != ino {
						t.Errorf("%s replaced (inode %d, then %d) by round %d's write", name, prev, ino, round)
					}
					inode[name] = ino
					if fi.Size() > 0 {
						filled[name] = true
					} else if filled[name] {
						t.Errorf("%s cut to zero by round %d's write", name, round)
					}
				}
				for name := range inode {
					if !slices.Contains(names, name) {
						t.Errorf("%s unlinked while the job runs (round %d)", name, round)
					}
				}
				if round >= 3 {
					fds := ckptFDs(t, dir)
					switch {
					case held == nil && len(fds) != 2:
						t.Errorf("at round 3 the store holds %v open under ckpt/, want both slots' files", fds)
					case held == nil:
						held = fds
					case fmt.Sprint(fds) != fmt.Sprint(held):
						t.Errorf("round %d's write: open under ckpt/ %v, want the descriptors held since round 3, %v", round, fds, held)
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
			if writes != savedBoundaries {
				t.Fatalf("saw %d writes under ckpt/, want %d", writes, savedBoundaries)
			}
			if len(inode) != 2 {
				t.Fatalf("the job had slot files %v, want each of its two created once", inode)
			}
			if left := ckptNames(t, dir); len(left) != 0 {
				t.Fatalf("ckpt/ holds %v after the job was recorded", left)
			}
			if fds := ckptFDs(t, dir); len(fds) != 0 {
				t.Fatalf("the store still holds %v after the job was recorded", fds)
			}
		})
	}
}

// ckptFDs lists the process's descriptors open on a file under the
// ckpt/ of the store rooted at dir, as "fd -> name".
func ckptFDs(t *testing.T, dir string) []string {
	t.Helper()
	root, err := filepath.EvalSymlinks(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var fds []string
	for _, e := range entries {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			fds = append(fds, e.Name()+" -> "+filepath.Base(target))
		}
	}
	slices.Sort(fds)
	return fds
}

// TestOverwriteCutsOnlyWhatShrank: an in-place rewrite leaves the file
// holding exactly the new head and body, in the inode it had, and
// truncates only when the new bytes are fewer than the old.
func TestOverwriteCutsOnlyWhatShrank(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slot")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inode := func() uint64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Sys().(*syscall.Stat_t).Ino
	}
	first := inode()
	size := int64(0)
	for i, body := range []string{"a longer first write", "short", "and a longest third write"} {
		head := fmt.Sprintf("head %d:", i)
		if err := atomicfile.Overwrite(f, size, []byte(head), []byte(body)); err != nil {
			t.Fatal(err)
		}
		size = int64(len(head) + len(body))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != head+body {
			t.Fatalf("after writing %q then %q the file holds %q", head, body, got)
		}
		if inode() != first {
			t.Fatalf("writing %q replaced the file", body)
		}
	}
}
