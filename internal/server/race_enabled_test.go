//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// it changes allocation counts (sync.Pool drops items at random), so
// allocation pins skip under it.
const raceEnabled = true
