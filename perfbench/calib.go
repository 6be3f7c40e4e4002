package main

// Host-speed calibration. The benchmark is meant to run on shared
// machines, whose speed drifts with what the neighbouring tenants do: on
// the 2-CPU machine the bounds were sized on, a fixed piece of work took
// anywhere from 100 to 185 ms within one minute, and no run length
// averages that away. So the benchmark times a fixed kernel while it runs,
// and multiplies every host-clock time it reports by the machine's speed
// around it: calRefNs, the kernel's typical time on that machine, over the
// kernel's median time in a window reaching calWindow beyond the measured
// interval on both sides. The kernel runs no program code, so a change to
// the program moves the scaled numbers as it moves the raw ones; only the
// machine's drift cancels. Each run prints the speed it saw on its
// "# speed" line.

import (
	"sort"
	"sync"
	"time"
)

const (
	calInterval = 10 * time.Millisecond // background sampling period
	calWindow   = 100 * time.Millisecond
	calKeys     = 1 << 10 // entries of the kernel's map, ~16 KiB
	calOps      = 4 * calKeys
	calBurst    = 20 // kernel runs per burst
	// calRefNs is the kernel's median time on the machine the bounds in
	// BENCHMARK.json were sized on (see README.md), so that scaled values
	// read in that machine's units.
	calRefNs = 40_000
)

// calibrator collects timed kernel runs.
type calibrator struct {
	base    time.Time
	mu      sync.Mutex
	at, dur []int64 // run start (ns since base) and kernel time, in order
	m       map[uint32]uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{base: time.Now(), m: make(map[uint32]uint32, calKeys)}
	for k := uint32(0); k < calKeys; k++ {
		c.m[k] = k
	}
	return c
}

// pass rewrites ops existing entries of the kernel's map. The values hold
// no pointers, so a running garbage collection adds no write barrier.
func (c *calibrator) pass(ops uint32) {
	for i := uint32(0); i < ops; i++ {
		k := (i * 2654435761) & (calKeys - 1)
		c.m[k] += i
	}
}

// record times one kernel run: map updates on an L1-resident map, after
// an untimed pass that brings it into cache. Of the kernels tried
// (pointer chasing over 1 MiB, arithmetic, allocation, goroutine
// hand-offs, cold and warm map updates), warm map updates tracked the
// simulator's drift while reading the same whatever the workload did
// before: a cold map also sees the cache the workload left behind, and
// hand-offs queue behind the garbage collector's workers.
func (c *calibrator) record() {
	c.pass(calKeys)
	t0 := time.Now()
	c.pass(calOps)
	d := time.Since(t0)
	c.mu.Lock()
	c.at = append(c.at, int64(t0.Sub(c.base)))
	c.dur = append(c.dur, int64(d))
	c.mu.Unlock()
}

// burst records calBurst kernel runs back to back.
func (c *calibrator) burst() {
	for i := 0; i < calBurst; i++ {
		c.record()
	}
}

// background records a kernel run every calInterval until the returned
// stop function is called; stop returns once the sampler has exited. On
// the one P the sampler runs between the workload's goroutines, taking
// under 1% of it.
func (c *calibrator) background() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(calInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				c.record()
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// speed is how fast the machine ran between a and b relative to the
// reference machine: above 1 means faster. With no kernel run in the
// window it falls back to every run, and with none at all it is 1.
func (c *calibrator) speed(a, b time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := int64(a.Sub(c.base) - calWindow)
	hi := int64(b.Sub(c.base) + calWindow)
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i] >= lo })
	j := sort.Search(len(c.at), func(i int) bool { return c.at[i] > hi })
	durs := c.dur[i:j]
	if len(durs) == 0 {
		durs = c.dur
	}
	if len(durs) == 0 {
		return 1
	}
	xs := make([]float64, len(durs))
	for k, d := range durs {
		xs[k] = float64(d)
	}
	return calRefNs / median(xs)
}

// overall is the speed over every kernel run so far.
func (c *calibrator) overall() float64 {
	return c.speed(c.base.Add(-calWindow), time.Now())
}
