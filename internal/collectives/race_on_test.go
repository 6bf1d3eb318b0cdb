//go:build race

package collectives_test

const raceEnabled = true
