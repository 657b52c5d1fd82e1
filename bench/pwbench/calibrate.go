package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// referenceSeconds is the reference mix's time on an uncontended 2-vCPU
// Xeon host. Time metrics are scaled to that host speed: a measured time
// t becomes t * referenceSeconds / r, where r is the mix's mean time
// measured beside the run's repeats.
const referenceSeconds = 0.35

// calibrationGap is the longest stretch of repeats between two host
// speed measurements.
const calibrationGap = 6 * time.Second

// calibrationRounds is how often one calibration child runs the mix.
const calibrationRounds = 2

// childCalibrate times the reference mix and reports its mean round
// time. The mean, not the fastest round, because the workloads' repeats
// absorb the host's stalls too.
func childCalibrate(o childOpts) error {
	rounds := calibrationRounds
	if o.smoke {
		rounds = 1
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		calibrationWork(o.workers)
	}
	mean := time.Since(t0).Seconds() / float64(rounds)
	return writeReport(o.report, &childReport{Values: map[string]float64{"reference_s": mean}})
}

// calibrate measures the host's current speed with a calibration child
// and records it in the tally. The mix runs on as many goroutines as the
// workload keeps busy, so it meets the same contention: a neighbour
// loading one CPU slows a serial workload less than a parallel one.
func (b *bench) calibrate(t *tally) error {
	report := b.path("calibrate.json")
	_, rep, err := runChild(b.childCmd("calibrate", "-report", report, "-workers", fmt.Sprint(t.calibrationWorkers)), report)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	t.reference = append(t.reference, rep.Values["reference_s"])
	return nil
}

// calibrationSink keeps the reference work observable.
var calibrationSink int

// calibrationWork is a fixed, deterministic mix of the kinds of work the
// workloads spend their time on — deflate compression, sorting, map
// inserts and small allocations under the garbage collector — run by
// the given number of goroutines at once.
func calibrationWork(workers int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 7))
			words := []string{"patchwork", "mirror", "capture", "flow", "site", "frame", "tcp", "udp", "vlan", "mpls"}
			var text bytes.Buffer
			for text.Len() < 2<<20 {
				text.WriteString(words[r.IntN(len(words))])
				text.WriteByte(byte('0' + r.IntN(10)))
			}
			var z bytes.Buffer
			zw := gzip.NewWriter(&z)
			zw.Write(text.Bytes())
			zw.Close()
			ints := make([]uint64, 1<<19)
			for i := range ints {
				ints[i] = r.Uint64()
			}
			slices.Sort(ints)
			m := make(map[uint64]int)
			for i := 0; i < 1<<17; i++ {
				m[r.Uint64()&0xfffff] = i
			}
			type node struct {
				next *node
				pad  [6]uint64
			}
			var head *node
			for i := 0; i < 1<<18; i++ {
				if i%1024 == 0 {
					head = nil
				}
				head = &node{next: head}
			}
			mu.Lock()
			calibrationSink += z.Len() + int(ints[0]) + len(m) + int(head.pad[0])
			mu.Unlock()
		}(w)
	}
	wg.Wait()
}
