//go:build !race

package nodefinder_test

const raceEnabled = false
