//go:build !race

package core_test

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts are not the program's.
const raceEnabled = false
