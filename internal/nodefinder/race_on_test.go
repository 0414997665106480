//go:build race

package nodefinder_test

const raceEnabled = true
