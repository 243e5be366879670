//go:build race

package distmat

// raceEnabled: see race_off_test.go.
const raceEnabled = true
