//go:build race

package ringrpq

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
