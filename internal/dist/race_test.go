//go:build race

package dist

// raceEnabled: under the race detector sync.Pool drops a random quarter
// of what it is handed, so a pooled frame is not free there and
// allocation counts are not the steady state's.
const raceEnabled = true
