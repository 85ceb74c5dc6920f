//go:build race

package cache

// The race detector makes sync.Pool drop a share of what is put back, so
// pooled-buffer allocation bounds do not hold under it.
func init() { raceEnabled = true }
