//go:build race

package pipeline

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
