//go:build !race

package machine

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
