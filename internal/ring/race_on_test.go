//go:build race

package ring

// raceEnabled gates the allocation-discipline guards: the race detector
// instruments allocations, so AllocsPerRun numbers are meaningless there.
const raceEnabled = true
