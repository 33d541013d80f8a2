package main

import (
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"inbandlb/internal/lbproxy"
)

// phase is one timed load phase on a running system.
type phase struct {
	gen        *genResult
	cpu        time.Duration
	gets, hits uint64
	// Step bookkeeping (zero without a step): when backend 0 slowed, and
	// each backend's served operations then and at the end.
	stepAt    time.Duration
	opsAtStep []uint64
	opsAtEnd  []uint64
	poll      *poller // nil unless polled
	allocs    uint64  // heap bytes allocated during the phase
	gcs       uint64  // GC cycles during the phase
}

// runPhase drives closed-loop load at addr for d. For a stepped workload,
// backend 0's delay rises by spec.stepExtra a third of the way in. With
// poll set, the proxy's status snapshot is sampled throughout.
func runPhase(s *system, spec liveSpec, addr string, data *dataset, seed int64, d time.Duration,
	rec *recorder, poll bool) *phase {
	ph := &phase{}
	gets0, hits0 := s.hitCounts()
	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	if poll {
		ph.poll = startPoller(s.proxy, start)
	}
	var (
		stepMu sync.Mutex
		step   *time.Timer
	)
	if spec.stepExtra > 0 {
		step = time.AfterFunc(d/3, func() {
			stepMu.Lock()
			defer stepMu.Unlock()
			ph.opsAtStep = s.backendOps()
			s.backends[0].SetDelay(spec.delay + spec.stepExtra)
			ph.stepAt = time.Since(start)
		})
	}
	cpu0 := cpuTime()
	ph.gen = generate(genOpts{addr: addr, reconnectEvery: spec.reconnectEvery, dur: d,
		seed: seed, data: data, rec: rec})
	ph.cpu = cpuTime() - cpu0
	if step != nil {
		step.Stop()
		stepMu.Lock()
		ph.opsAtEnd = s.backendOps()
		stepMu.Unlock()
	}
	if ph.poll != nil {
		ph.poll.halt()
	}
	gets, hits := s.hitCounts()
	ph.gets, ph.hits = gets-gets0, hits-hits0
	alloc1, gc1 := runtimeCounters()
	ph.allocs, ph.gcs = alloc1-alloc0, gc1-gc0
	return ph
}

// pollPoint is one sample of the proxy's status snapshot.
type pollPoint struct {
	at        time.Duration
	weights   []float64
	latencies []float64 // per-backend estimate, ms
}

// poller samples lbproxy's Snapshot on a fixed period from outside.
type poller struct {
	stop, done    chan struct{}
	goroutinesMax int
	trackedMax    int
	gen0, gen1    uint64
	points        []pollPoint
}

const pollEvery = 5 * time.Millisecond

func startPoller(p *lbproxy.Proxy, start time.Time) *poller {
	pl := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	pl.gen0 = p.Snapshot().SnapshotGeneration
	go func() {
		defer close(pl.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			snap := p.Snapshot()
			pl.goroutinesMax = max(pl.goroutinesMax, snap.Goroutines)
			pl.trackedMax = max(pl.trackedMax, snap.TrackedFlows)
			pl.gen1 = snap.SnapshotGeneration
			pl.points = append(pl.points, pollPoint{at: time.Since(start),
				weights: snap.Weights, latencies: snap.LatenciesMs})
			select {
			case <-pl.stop:
				return
			case <-t.C:
			}
		}
	}()
	return pl
}

// halt stops the poller and waits for it; its fields are then stable.
func (pl *poller) halt() {
	close(pl.stop)
	<-pl.done
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
