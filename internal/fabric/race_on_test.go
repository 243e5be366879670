//go:build race

package fabric_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
