package atomicfile

// The crash seam, opened to the external test package.

type Boundary = boundary

const (
	BeforeWrite = beforeWrite
	HalfWritten = halfWritten
	AllWritten  = allWritten
	Cut         = cut
	HeadHalf    = headHalfWritten
	HeadWritten = headWritten
)

func (b boundary) String() string {
	return [...]string{"temp-created", "half-written", "all-written", "closed", "renamed", "before-write", "cut", "head-half-written", "head-written"}[b]
}

func SetCrashAt(f func(path string, b Boundary) bool) { crashAt = f }
