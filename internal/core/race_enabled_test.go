//go:build race

package core_test

// raceEnabled gates tests whose allocation counts are distorted by the race
// detector's instrumentation.
const raceEnabled = true
