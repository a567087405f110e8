//go:build race

package stage

// raceEnabled is true under the race detector, whose instrumentation adds
// allocations that the allocation guards must not count.
const raceEnabled = true
