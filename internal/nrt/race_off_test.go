//go:build !race

package nrt

const raceEnabled = false
