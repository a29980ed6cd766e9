package pop

import (
	"fmt"
	"strconv"
	"strings"

	"gsfl/internal/registry"
)

// Profile is one device-heterogeneity class: a named compute-speed
// multiplier applied on top of the fleet slot's synthesized FLOPS when
// a member of that class mounts the slot. Profiles capture the
// systematic spread between device generations; the fleet's log-normal
// spread stays as the within-class variation.
type Profile struct {
	// Name is the registry key.
	Name string
	// Speed multiplies the slot's base FLOPS (1.0 = baseline).
	Speed float64
}

var profiles = registry.New[Profile]("pop", "device profile")

// RegisterProfile adds a device profile to the registry. It panics on
// an empty name, a non-positive speed, or a duplicate registration.
func RegisterProfile(p Profile) {
	if p.Speed <= 0 {
		panic(fmt.Sprintf("pop: profile %q speed %v must be positive", p.Name, p.Speed))
	}
	profiles.Register(p.Name, p)
}

// Profiles returns the registered profile names, sorted.
func Profiles() []string { return profiles.Names() }

// ProfileByName resolves a registered profile.
func ProfileByName(name string) (Profile, error) { return profiles.Get(name) }

// DefaultProfile is the profile every member gets under an empty mix.
const DefaultProfile = "baseline"

// MixEntry is one component of a device-profile mix.
type MixEntry struct {
	Profile Profile
	// Weight is the entry's population share (normalized over the mix).
	Weight float64
}

// ParseMix parses a device-profile mix of the form
// "name:weight,name:weight" (e.g. "low-end:0.5,baseline:0.5") against
// the profile registry. Weights must be positive and are normalized;
// an empty string yields the all-baseline mix. Entry order is
// preserved — it is part of the mix's identity, since member→profile
// assignment walks the cumulative weights in order.
func ParseMix(s string) ([]MixEntry, error) {
	if strings.TrimSpace(s) == "" {
		base, err := ProfileByName(DefaultProfile)
		if err != nil {
			return nil, err
		}
		return []MixEntry{{Profile: base, Weight: 1}}, nil
	}
	parts := strings.Split(s, ",")
	mix := make([]MixEntry, 0, len(parts))
	seen := map[string]bool{}
	for _, part := range parts {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("pop: mix entry %q not of the form name:weight", part)
		}
		name = strings.TrimSpace(name)
		p, err := ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("pop: profile %q appears twice in mix %q", name, s)
		}
		seen[name] = true
		w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("pop: mix weight %q for %q must be a positive number", weightStr, name)
		}
		mix = append(mix, MixEntry{Profile: p, Weight: w})
	}
	if len(mix) > 256 {
		return nil, fmt.Errorf("pop: mix has %d entries, max 256 (profile ids are one byte per member)", len(mix))
	}
	total := 0.0
	for _, e := range mix {
		total += e.Weight
	}
	for i := range mix {
		mix[i].Weight /= total
	}
	return mix, nil
}

func init() {
	RegisterProfile(Profile{Name: DefaultProfile, Speed: 1.0})
	RegisterProfile(Profile{Name: "low-end", Speed: 0.35})
	RegisterProfile(Profile{Name: "high-end", Speed: 2.5})
}
