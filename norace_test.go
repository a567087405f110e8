//go:build !race

package tmi3d_test

const raceEnabled = false
