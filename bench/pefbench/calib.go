package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// The hosts this benchmark runs on share their cores with other tenants,
// and their speed drifts by 20–30% over tens of seconds: a child's
// CPU time grows with its wall time, so the cores themselves run slower.
// The parent therefore times a fixed kernel before every iteration and
// after the last one, and scales every timed end-to-end metric of a pass
// by the ratio of the kernel's mean time to calibRefMs. The kernel runs
// in a fresh child, like an iteration, so it pays the same heap growth.
// It is bench code, so no change to the system moves it.

// calibRefMs is the kernel's time on the reference host: a quiet 2-vCPU
// VM. Scaled metrics read what that host would have measured.
const calibRefMs = 75.0

// calibration runs the kernel in a child and returns its time in ms.
func calibration(ctx context.Context) (float64, error) {
	r, err := spawn(ctx, childSpec{Calibrate: true})
	if err != nil {
		return 0, err
	}
	if r.res.Error != "" {
		return 0, fmt.Errorf("calibration: %s", r.res.Error)
	}
	return r.res.WallMs, nil
}

// runCalibration runs the kernel on two goroutines, one per worker of the
// workloads.
func runCalibration() {
	var wg sync.WaitGroup
	for g := uint64(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSink[g-1] = calibKernel(g)
		}()
	}
	wg.Wait()
}

// calibSink keeps the kernel's results live so the compiler cannot drop
// its work.
var calibSink [2]uint64

type calibNode struct {
	next *calibNode
	v    [6]uint64
}

// calibKernel mixes the work the workloads do: it sorts and hashes
// pseudo-random integers, then builds and walks short-lived linked lists
// that keep the garbage collector busy.
func calibKernel(seed uint64) uint64 {
	xs := make([]int, 1<<18)
	x := seed
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x >> 1)
	}
	sort.Ints(xs)
	m := map[int]int{}
	for i := 0; i < 1<<15; i++ {
		m[xs[i*3]%5000] += i
	}
	sum := uint64(len(m))
	for r := 0; r < 40; r++ {
		var head *calibNode
		for i := 0; i < 10000; i++ {
			head = &calibNode{next: head}
			head.v[0] = seed + uint64(i)
		}
		for n := head; n != nil; n = n.next {
			sum += n.v[0]
		}
	}
	return sum
}
