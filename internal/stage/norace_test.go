//go:build !race

package stage

const raceEnabled = false
