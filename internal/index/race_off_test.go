//go:build !race

package index

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under -race because the
// instrumentation itself allocates.
const raceEnabled = false
