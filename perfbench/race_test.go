//go:build race

package main

// raceEnabled reports a -race build, whose slowdown leaves the timed
// phases too few ops for their percentiles.
const raceEnabled = true
