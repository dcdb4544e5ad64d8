//go:build race

package adversary

// raceEnabled gates the allocation-discipline guards: the race detector
// instruments allocations, so AllocsPerRun numbers are meaningless there.
const raceEnabled = true
