package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// phase is one measured stretch of a workload: it hands out op indices
// until its deadline (or op limit) passes, and records every op's
// latency, result hash and verdict. Systems call it from as many load
// goroutines as the workload uses.
type phase struct {
	seconds  float64
	deadline time.Time // set when measuring starts
	maxOps   int       // stop after this many ops instead of at the deadline (0 = deadline)
	pins     []string  // expected hash by pin index; nil leaves results unpinned
	tr       *tracer   // non-nil in the traced phase

	mu      sync.Mutex
	claimed int
	ops     int
	failed  int
	lat     []float64      // per-op latency, ms
	hashes  map[int]string // first hash seen per pin index
	errs    []string
}

func newPhase(seconds float64, maxOps int, pins []string, tr *tracer) *phase {
	return &phase{seconds: seconds, maxOps: maxOps, pins: pins, tr: tr, hashes: map[int]string{}}
}

// open reports whether another unit of work may start.
func (ph *phase) open() bool {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.openLocked()
}

func (ph *phase) openLocked() bool {
	if ph.maxOps > 0 {
		return ph.claimed < ph.maxOps
	}
	return time.Now().Before(ph.deadline)
}

// claim returns the next op index, or false once the phase is over.
func (ph *phase) claim() (int, bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if !ph.openLocked() {
		return 0, false
	}
	ph.claimed++
	return ph.claimed - 1, true
}

// claimInUnit returns the next op index of a unit already under way (a
// pass of tables, a grid session): past the deadline the unit still
// finishes, so every run measures whole units; only an op limit stops it.
func (ph *phase) claimInUnit() (int, bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.maxOps > 0 && ph.claimed >= ph.maxOps {
		return 0, false
	}
	ph.claimed++
	return ph.claimed - 1, true
}

// done records one finished op. pin is the op's index into the pins;
// hash is its result hash, checked against the pin and against any
// earlier op with the same pin index (the library is deterministic, so a
// repeated input must reproduce its result). A non-nil err fails the op.
func (ph *phase) done(pin int, d time.Duration, hash string, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.ops++
	ph.lat = append(ph.lat, float64(d)/float64(time.Millisecond))
	switch {
	case err != nil:
	case pin < len(ph.pins) && ph.pins[pin] != hash:
		err = fmt.Errorf("op %d: result hash %s, pinned %s", pin, hash, ph.pins[pin])
	default:
		if prev, ok := ph.hashes[pin]; ok && prev != hash {
			err = fmt.Errorf("op %d: result hash %s, earlier run of the same input gave %s", pin, hash, prev)
		} else if !ok {
			ph.hashes[pin] = hash
		}
	}
	if err != nil {
		ph.failLocked(err)
	}
}

// fail records a failure found after an op was counted (a store reload
// that disagrees with the streamed result).
func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failLocked(err)
}

func (ph *phase) failLocked(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// usage is a process resource snapshot.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	totalAlloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
	}
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phaseStats is what one measured phase yields.
type phaseStats struct {
	ops, failed int
	wall, cpu   time.Duration
	allocBytes  uint64
	lat         []float64
	errs        []string
}

func (s phaseStats) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }

// measure runs one phase of a workload between two usage snapshots, with
// the CPU profiler on over exactly that window when profile is non-nil.
func measure(d system, ph *phase, profile io.Writer) (phaseStats, error) {
	runtime.GC() // start every phase from a collected heap
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return phaseStats{}, err
		}
	}
	before := readUsage()
	ph.deadline = before.wall.Add(time.Duration(ph.seconds * float64(time.Second)))
	err := d.run(ph)
	after := readUsage()
	if profile != nil {
		pprof.StopCPUProfile()
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return phaseStats{
		ops: ph.ops, failed: ph.failed,
		wall:       after.wall.Sub(before.wall),
		cpu:        after.cpu - before.cpu,
		allocBytes: after.totalAlloc - before.totalAlloc,
		lat:        ph.lat,
		errs:       ph.errs,
	}, err
}
