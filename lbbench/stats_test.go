package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func microseconds(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = time.Duration(n-i) * time.Microsecond // reversed: sorting matters
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if _, ok := sorted(microseconds(999)).tail(0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be missing")
	}
	p99, ok := sorted(microseconds(1000)).tail(0.99)
	if !ok || p99 != 990*time.Microsecond {
		t.Fatalf("p99 of 1..1000us = %v, %v; want 990us, true", p99, ok)
	}
	if _, ok := sorted(nil).tail(0.99); ok {
		t.Fatal("empty sample must have no tail")
	}
	if _, ok := sorted(nil).median(); ok {
		t.Fatal("empty sample must have no median")
	}
	p50, _ := sorted(microseconds(9)).median()
	if p50 != 5*time.Microsecond {
		t.Fatalf("median of 1..9us = %v, want 5us", p50)
	}
}

func TestFailedOperationsNeverEnterLatency(t *testing.T) {
	var a tally
	a.ok(10 * time.Microsecond)
	a.fail() // refused or failed request
	a.ok(30 * time.Microsecond)
	a.check(true)
	a.check(false) // a failed output check
	if a.attempted != 5 || a.failed != 2 || a.completed() != 3 {
		t.Fatalf("attempted=%d failed=%d completed=%d, want 5 2 3", a.attempted, a.failed, a.completed())
	}
	if len(a.lat) != 2 {
		t.Fatalf("latency sample has %d entries, want only the 2 completed requests", len(a.lat))
	}
	if got := a.errorRatio(); got != 0.4 {
		t.Fatalf("error ratio %v, want 0.4", got)
	}
	var b tally
	b.fail()
	all := combine(&a, &b)
	if all.attempted != 6 || all.failed != 3 {
		t.Fatalf("combined attempted=%d failed=%d, want 6 3", all.attempted, all.failed)
	}
	var none tally
	if none.errorRatio() != 0 {
		t.Fatal("error ratio of nothing attempted must be 0")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "a b", "p99/us", ".hidden", "x\n"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metrics.set accepted bad name %q", bad)
				}
			}()
			metrics{}.set(bad, "us", 1)
		}()
	}
}

// gated are the workloads BENCHMARK.json lists. reconnect-step is left
// out: its p99 and throughput follow the host's timer overshoot and the
// controller's unsettled weights too closely to hold a bound (README.md).
var gated = []string{"relay-small", "relay-bulk", "sim-dst"}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the benchmark in step:
// the gated workloads, the metric names and units, in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark gates %d", len(b.Workloads), len(gated))
	}
	for i, w := range b.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, gated[i])
		}
	}
	for _, c := range []struct {
		file []entry
		code []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.file), len(c.code))
		}
		for i, e := range c.file {
			if e.Name != c.code[i].name || e.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					i, e.Name, e.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestSimClockSteps(t *testing.T) {
	var steps []time.Duration
	c := &simClock{window: 10 * time.Millisecond, samples: &steps}
	for _, now := range []time.Duration{3, 7, 12, 15, 41, 44} {
		c.tick(now * time.Millisecond)
	}
	// Crossings at 12ms (one window) and 41ms (three windows); the first
	// call only starts the clock and calls below the boundary do nothing.
	if len(steps) != 2 || c.next != 50*time.Millisecond {
		t.Fatalf("steps=%d next=%v, want 2 and 50ms", len(steps), c.next)
	}
	var nilClock *simClock
	nilClock.tick(time.Second) // a nil clock is off
}

func TestTypicalPassTakesMedianRepetition(t *testing.T) {
	ms := time.Millisecond
	r := &simRun{steps: []time.Duration{1, 2, 3, 4, 5, 6}}
	r.reps = []simRep{
		{pool: 0, wall: 30 * ms, cpu: 3 * ms, responses: 300, lo: 0, hi: 1},
		{pool: 0, wall: 10 * ms, cpu: 1 * ms, responses: 100, lo: 1, hi: 2},
		{pool: 0, wall: 20 * ms, cpu: 2 * ms, responses: 200, lo: 2, hi: 4}, // median of pool 0
		{pool: 1, wall: 50 * ms, cpu: 5 * ms, responses: 500, lo: 4, hi: 5}, // lower median of pool 1
		{pool: 1, wall: 90 * ms, cpu: 9 * ms, responses: 900, lo: 5, hi: 6},
	}
	resp, wall, cpu, steps := r.typical()
	if resp != 700 || wall != 70*ms || cpu != 7*ms || len(steps) != 3 {
		t.Fatalf("typical pass: %d responses, %v wall, %v cpu, %d steps; want 700, 70ms, 7ms, 3",
			resp, wall, cpu, len(steps))
	}
}
