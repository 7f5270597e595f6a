//go:build race

package core

// raceEnabled: the race detector instruments allocation, so allocation
// counts under it are not the steady state's.
const raceEnabled = true
