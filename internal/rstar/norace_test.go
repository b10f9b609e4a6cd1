//go:build !race

package rstar

const raceEnabled = false
