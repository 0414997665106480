//go:build race

package census_test

const raceEnabled = true
