package main

import (
	"math/rand"
	"sort"
	"time"
)

// On a shared 2-vCPU virtual machine the memory system slows down and
// speeds up by 15-50% over minutes, and the scheduler's pass times follow.
// Pass times are therefore normalized by a calibration kernel that lives
// here, so no change to the program can move it. The kernel
// does what the scheduler spends its time on — allocating small objects,
// hashing into maps, chasing pointers, sorting — on fixed data. The parent
// runs it in fresh child processes between the measured children; a
// pass time t is reported as t × calibRef / (median calibration time), the
// time it would take on a machine where the kernel takes calibRef. Set-up
// times are reported as measured: over ten runs per workload they spread
// 0.03 raw and 0.08-0.15 calibrated.
//
// Measured on that machine: over nine 20-second windows of fuzz-sweep
// passes, the spread (IQR / median) of the window medians was 0.15 for raw
// pass time and 0.04 after this normalization.

// calibRef is the reference time of one calibration kernel run; a fixed
// constant, about what the kernel takes on that machine.
const calibRef = 12 * time.Millisecond

// calibSamples is how many kernel runs one calibration child makes.
const calibSamples = 3

// calibNode is a list node with a payload the size of a small IR value.
type calibNode struct {
	next *calibNode
	v    [6]int64
}

var calibSink int64

// calibrate runs the kernel once and returns its wall time.
func calibrate() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 15
	m := map[int64]int64{}
	s := make([]int64, 0, n)
	var head *calibNode
	for i := 0; i < n; i++ {
		x := rng.Int63()
		m[x%50000] += x
		s = append(s, x)
		head = &calibNode{next: head, v: [6]int64{x}}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for p := head; p != nil; p = p.next {
		calibSink += p.v[0] & 7
	}
	calibSink += int64(len(m)) + s[n/2]&1
	return time.Since(start)
}
