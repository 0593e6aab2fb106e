//go:build race

package core_test

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop a quarter of what is put back, so allocation counts mean nothing.
const raceEnabled = true
