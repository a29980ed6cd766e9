package atomicfile

// The crash seam, opened to the external test package.

type Boundary = boundary

var Boundaries = []Boundary{tempCreated, halfWritten, allWritten, closed, renamed}

const (
	TempCreated = tempCreated
	HalfWritten = halfWritten
	AllWritten  = allWritten
	Closed      = closed
	Renamed     = renamed
)

func (b boundary) String() string {
	return [...]string{"temp-created", "half-written", "all-written", "closed", "renamed"}[b]
}

func SetCrashAt(f func(path string, b Boundary) bool) { crashAt = f }
