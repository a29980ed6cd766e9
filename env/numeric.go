package env

import "gsfl/internal/tensor"

// NumericMode names one floating-point contract for the tensor kernels.
// The default "exact" mode is bit-identical at any worker count and
// across platforms; a mode with Reassociate set may fuse multiply-adds
// (FMA) in the GEMM micro-kernel — still deterministic on one machine
// at any worker count, but only tolerance-comparable to exact mode.
type NumericMode = tensor.NumericMode

// DefaultNumericMode is the name of the bit-identical default mode.
const DefaultNumericMode = tensor.DefaultNumericMode

// NumericModes returns the numeric-mode names ("exact", "fast") usable
// in Spec.Numeric, grid files, and the -numeric flag.
func NumericModes() []string { return tensor.NumericModes() }

// CanonicalNumericMode validates a numeric-mode name and returns its
// canonical form; the empty name means the default mode.
func CanonicalNumericMode(name string) (string, error) {
	return tensor.CanonicalNumericMode(name)
}

// SetNumericMode installs the process-wide numeric mode (the CLI
// -numeric choice). Kernels consult the mode per call, so it must be
// set before a run starts, not mid-round.
func SetNumericMode(name string) error { return tensor.SetNumericMode(name) }

// CurrentNumericMode reports the numeric mode the kernels are running
// under right now.
func CurrentNumericMode() NumericMode { return tensor.CurrentNumericMode() }
