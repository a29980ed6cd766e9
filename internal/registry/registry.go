// Package registry is the one name → value table behind every
// extension point that is resolved by name: schemes, architectures,
// dataset generators, allocators, availability traces, device profiles
// and straggler policies. Each of those packages keeps its own exported
// Register/Names/lookup functions and delegates to a Registry here, so
// the rules — panic on a bad registration, sorted canonical names, an
// unknown-name error that lists what is registered — have one
// implementation.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Registry maps canonical names, and optional aliases of them, to
// values of type T. The zero value is not usable; call New.
type Registry[T any] struct {
	pkg, kind string
	mu        sync.RWMutex
	entries   map[string]entry[T] // keyed by canonical name and by alias
}

type entry[T any] struct {
	canonical string
	value     T
}

// New returns an empty registry. pkg prefixes every message the way the
// owning package's other errors are prefixed; kind is the noun for what
// is registered ("scheme", "allocator", …).
func New[T any](pkg, kind string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, entries: map[string]entry[T]{}}
}

// Register adds v under its canonical name plus any aliases. It panics
// on an empty name, a nil value, or a name or alias already taken —
// programmer errors at init time.
func (r *Registry[T]) Register(name string, v T, aliases ...string) {
	if name == "" {
		panic(fmt.Sprintf("%s: %s registered with empty name", r.pkg, r.kind))
	}
	if isNil(v) {
		panic(fmt.Sprintf("%s: nil %s %q", r.pkg, r.kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string{name}, aliases...)
	for _, n := range names {
		if _, dup := r.entries[n]; dup {
			panic(fmt.Sprintf("%s: %s %q registered twice", r.pkg, r.kind, n))
		}
	}
	for _, n := range names {
		r.entries[n] = entry[T]{canonical: name, value: v}
	}
}

// Names returns the canonical names (never the aliases) in sorted order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n, e := range r.entries {
		if n == e.canonical {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Get resolves a canonical name or alias to its value. An unknown name
// is an error listing the registered canonical names.
func (r *Registry[T]) Get(name string) (T, error) {
	e, err := r.lookup(name)
	return e.value, err
}

// Canonical resolves a canonical name or alias to the canonical name —
// the spelling job hashes, manifests and CSVs record.
func (r *Registry[T]) Canonical(name string) (string, error) {
	e, err := r.lookup(name)
	return e.canonical, err
}

func (r *Registry[T]) lookup(name string) (entry[T], error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return entry[T]{}, fmt.Errorf("%s: unknown %s %q (registered: %v)", r.pkg, r.kind, name, r.Names())
	}
	return e, nil
}

// isNil reports whether v is a nil func, pointer, map, slice, channel
// or interface — the registrations that would only fail later, at the
// first lookup.
func isNil(v any) bool {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface:
		return rv.IsNil()
	}
	return false
}
