//go:build race

package nrt

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation bounds that rest on a pool do not
// hold under it.
const raceEnabled = true
