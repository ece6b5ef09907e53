//go:build race

package ir_test

// raceEnabled reports that the race detector is active; allocation-count
// assertions are skipped because the race runtime's instrumentation
// allocates on its own.
func init() { raceEnabled = true }
