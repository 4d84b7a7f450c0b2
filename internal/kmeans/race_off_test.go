//go:build !race

package kmeans

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
