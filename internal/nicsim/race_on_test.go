//go:build race

package nicsim

const raceEnabled = true
