package sweep

// SetAfterManifestMiss opens openManifest's seam to the external test
// package.
func SetAfterManifestMiss(f func()) { afterManifestMiss = f }
