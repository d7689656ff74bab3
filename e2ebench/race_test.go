//go:build race

package main

// raceEnabled reports that the race detector is on: timings then are
// not representative.
const raceEnabled = true
