//go:build race

package experiments

// raceEnabled reports that the race detector is instrumenting this build;
// wall-clock bounds on real-socket runs do not hold under it.
const raceEnabled = true
