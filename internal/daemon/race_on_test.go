//go:build race

package daemon

// raceEnabled skips what the race detector changes: it makes sync.Pool
// drop a share of what is put back, so allocation counts rise.
const raceEnabled = true
