package registry

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

type namer interface{ Name() string }

func TestRegistry(t *testing.T) {
	r := New[func() int]("pkg", "widget")
	r.Register("zeta", func() int { return 1 })
	r.Register("alpha", func() int { return 2 }, "a", "al")

	t.Run("names are canonical and sorted", func(t *testing.T) {
		if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
			t.Fatalf("Names() = %v", got)
		}
	})
	t.Run("alias resolves to the canonical entry", func(t *testing.T) {
		for _, name := range []string{"alpha", "a", "al"} {
			f, err := r.Get(name)
			if err != nil || f() != 2 {
				t.Fatalf("Get(%q) = %v", name, err)
			}
			if canon, err := r.Canonical(name); err != nil || canon != "alpha" {
				t.Fatalf("Canonical(%q) = %q, %v", name, canon, err)
			}
		}
	})
	t.Run("unknown name lists the sorted canonical names", func(t *testing.T) {
		_, err := r.Get("nope")
		const want = `pkg: unknown widget "nope" (registered: [alpha zeta])`
		if err == nil || err.Error() != want {
			t.Fatalf("Get(nope) error = %v, want %s", err, want)
		}
		if _, err := r.Canonical(""); err == nil {
			t.Fatal("the empty name resolved")
		}
	})

	panics := []struct {
		name, want string
		register   func()
	}{
		{"empty name", "empty name", func() { r.Register("", func() int { return 0 }) }},
		{"duplicate name", `"zeta" registered twice`, func() { r.Register("zeta", func() int { return 0 }) }},
		{"alias taken", `"a" registered twice`, func() { r.Register("beta", func() int { return 0 }, "a") }},
		{"name equal to an alias", `"al" registered twice`, func() { r.Register("al", func() int { return 0 }) }},
		{"nil func", `nil widget "ghost"`, func() { r.Register("ghost", nil) }},
		{"nil interface", `nil thing "ghost"`, func() { New[namer]("pkg", "thing").Register("ghost", nil) }},
	}
	for _, c := range panics {
		t.Run(c.name+" panics", func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "pkg: ") || !strings.Contains(msg, c.want) {
					t.Fatalf("panic = %q, want it to mention %s", msg, c.want)
				}
			}()
			c.register()
		})
	}
	t.Run("failed registrations left nothing behind", func(t *testing.T) {
		if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
			t.Fatalf("Names() = %v", got)
		}
	})

	// Lookups race registrations in practice only at init time, but the
	// registries are reachable from concurrently running jobs; -race
	// holds the locking to that.
	t.Run("concurrent lookups", func(t *testing.T) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 200; k++ {
					if _, err := r.Get("al"); err != nil {
						t.Error(err)
					}
					_ = r.Names()
				}
			}()
		}
		r.Register("late", func() int { return 3 })
		wg.Wait()
	})
}
