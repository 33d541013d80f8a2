package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/dst"
)

// simWindow is the simulated time whose wall-clock cost is sim-dst's
// request latency.
const simWindow = 10 * time.Millisecond

// warmup is the untimed scenario run during set-up. It is the same for
// every workload seed, so set-up time does not vary with the seed list.
var warmup = simSeed{seed: 1}

// simPool is how many scenarios a run cycles through: half from
// dst.Generate, half from dst.GenerateCongestion. The pool is the same for
// every workload seed, which only orders it: scenario costs differ by
// several times, so a seed-drawn sample of the few dozen scenarios a run
// has time for would move throughput by more than any bound.
const simPool = 16

// simSeed is one scenario of the pool: a DST seed and its generator.
type simSeed struct {
	seed       int64
	congestion bool
}

func (s simSeed) scenario() dst.Scenario {
	if s.congestion {
		return dst.GenerateCongestion(s.seed)
	}
	return dst.Generate(s.seed)
}

// seedList is the scenario pool in the order the workload seed gives it.
func seedList(seed int64) []simSeed {
	pool := make([]simSeed, simPool)
	master := rand.New(rand.NewSource(20221114))
	for i := range pool {
		pool[i] = simSeed{seed: master.Int63n(1 << 40), congestion: i%2 == 1}
	}
	list := make([]simSeed, simPool)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(simPool) {
		list[i] = pool[j]
	}
	return list
}

// simRun is what the sim-dst workload measured.
type simRun struct {
	checks    tally           // one operation per scenario: failed on error or violation
	reps      []simRep        // every scenario run that passed its checks
	steps     []time.Duration // wall time per simWindow of simulated time, all reps
	stats     dst.RunStats    // summed over reps
	setup     []time.Duration
	elapsed   time.Duration
	decisions int64
	hooks     *policyHooks
	allocs    uint64 // heap bytes allocated while timed
	gcs       uint64 // GC cycles while timed
}

// simRep is one run of one pool scenario.
type simRep struct {
	pool      int // index into the pool order
	wall, cpu time.Duration
	responses uint64
	lo, hi    int // its steps: simRun.steps[lo:hi]
}

// typical is the median repetition of each pool scenario: one pass
// through the pool at its typical speed. A burst of interference on the
// host then moves the figures only if it hits most repetitions of a
// scenario.
func (r *simRun) typical() (responses uint64, wall, cpu time.Duration, steps []time.Duration) {
	byPool := map[int][]simRep{}
	for _, rep := range r.reps {
		byPool[rep.pool] = append(byPool[rep.pool], rep)
	}
	for _, reps := range byPool {
		sort.Slice(reps, func(i, j int) bool { return reps[i].wall < reps[j].wall })
		m := reps[(len(reps)-1)/2]
		responses += m.responses
		wall += m.wall
		cpu += m.cpu
		steps = append(steps, r.steps[m.lo:m.hi]...)
	}
	return responses, wall, cpu, steps
}

// scenarioWalls is the wall time of every repetition.
func (r *simRun) scenarioWalls() []time.Duration {
	ws := make([]time.Duration, len(r.reps))
	for i, rep := range r.reps {
		ws[i] = rep.wall
	}
	return ws
}

// runSim sets up (seed list plus one warm-up scenario, several times),
// then runs the list's scenarios one at a time, cyclically, until d has
// passed. The policy is always wrapped, for its clock; with rec set the
// wrapper also times policy calls and records spans, and an audit sink
// counts decisions.
func runSim(seed int64, d time.Duration, rec *recorder) (*simRun, error) {
	r := &simRun{}
	if rec != nil {
		r.hooks = &policyHooks{rec: rec}
	}
	var list []simSeed
	opts := dst.RunOptions{Mutate: func(p control.Policy) control.Policy {
		return wrapPolicy(p, r.hooks, &simClock{window: simWindow, samples: &r.steps})
	}}
	sink := &countingSink{}
	if rec != nil {
		opts.Audit = sink
	}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		list = seedList(seed)
		if _, err := dst.RunOpts(warmup.scenario(), opts); err != nil {
			return nil, fmt.Errorf("warm-up scenario: %w", err)
		}
		r.setup = append(r.setup, time.Since(start))
	}
	if r.hooks != nil {
		r.hooks.calls.Store(0)
		r.hooks.busy.Store(0)
	}
	sink.n.Store(0)
	r.steps = r.steps[:0]

	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		s := list[i%len(list)]
		lo := len(r.steps)
		cpu0, t0 := cpuTime(), time.Now()
		rep, err := dst.RunOpts(s.scenario(), opts)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if rec != nil {
			rec.timed("dst.run", t0, wall, -1)
		}
		switch {
		case err != nil:
			fmt.Printf("sim-dst: seed %d (congestion=%v): %v\n", s.seed, s.congestion, err)
			r.checks.fail()
			continue
		case rep.Failed():
			fmt.Printf("sim-dst: seed %d (congestion=%v): %d oracle violations, first: %v\n",
				s.seed, s.congestion, rep.Total, rep.Violations[0])
			r.checks.fail()
			continue
		}
		r.checks.check(true)
		r.reps = append(r.reps, simRep{pool: i % len(list), wall: wall, cpu: cpu,
			responses: rep.Stats.Responses, lo: lo, hi: len(r.steps)})
		addStats(&r.stats, rep.Stats)
	}
	r.elapsed = time.Since(start)
	alloc1, gc1 := runtimeCounters()
	r.allocs, r.gcs = alloc1-alloc0, gc1-gc0
	r.decisions = sink.n.Load()
	return r, nil
}

func addStats(dst *dst.RunStats, s dst.RunStats) {
	dst.Sent += s.Sent
	dst.Responses += s.Responses
	dst.Timeouts += s.Timeouts
	dst.NewFlows += s.NewFlows
	dst.Fallbacks += s.Fallbacks
	dst.Retransmits += s.Retransmits
	dst.CongObserved += s.CongObserved
}
