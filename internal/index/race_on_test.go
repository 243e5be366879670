//go:build race

package index

// raceEnabled: see race_off_test.go.
const raceEnabled = true
