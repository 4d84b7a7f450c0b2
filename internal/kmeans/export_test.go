package kmeans

// CheckAgainstFrozen lets the external test package compare Best and
// Cluster with the frozen loop on rows it builds from real programs.
var CheckAgainstFrozen = checkAgainstFrozen

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = raceEnabled
