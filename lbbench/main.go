// Command lbbench is the end-to-end benchmark for lbproxy and the
// simulator. Live workloads drive closed-loop memcached-protocol load
// through an in-process lbproxy to in-process memcache backends over
// loopback; the sim-dst workload runs seeded DST scenarios through the
// simulator. Every run checks its outputs.
//
//	lbbench --workload relay-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, measured
// by a traced run whose spans are written under .bench_build/traces. The exit code
// is non-zero when any output check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// traceDir is where a traced run writes its spans, relative to the
// working directory.
const traceDir = ".bench_build/traces"

// setupRepeats is how many times a sim-dst run sets up; setup_s is their
// median. A live run sets up once per episode.
const setupRepeats = 5

// episodes is how many freshly set-up systems a live run measures.
const episodes = 10

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, on every workload.
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_req", "us"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A layer that does no work on a
// workload reports 0 there; the human-readable report says so.
var perLayer = []metricSpec{
	{"lbproxy.relay_syscalls_per_req", "count"},
	{"lbproxy.added_latency_us_p50", "us"},
	{"lbproxy.connect_us_p50", "us"},
	{"lbproxy.first_req_us_p50", "us"},
	{"lbproxy.dial_us_p50", "us"},
	{"lbproxy.dial_us_p99", "us"},
	{"lbproxy.dials_per_conn", "count"},
	{"lbproxy.goroutines_max", "count"},
	{"core.samples_per_req", "count"},
	{"core.tracked_flows_max", "count"},
	{"core.estimate_ratio", "ratio"},
	{"control.slow_share", "ratio"},
	{"control.react_ms", "ms"},
	{"control.publishes_per_s", "1/s"},
	{"control.policy_calls", "count"},
	{"control.policy_busy_us", "us"},
	{"control.policy_busy_share", "ratio"},
	{"control.decisions", "count"},
	{"memcache.direct_latency_us_p50", "us"},
	{"memcache.hit_ratio", "ratio"},
	{"process.alloc_bytes_per_req", "B"},
	{"process.gc_cycles", "count"},
	{"dst.scenario_ms_p50", "ms"},
	{"dst.scenario_ms_max", "ms"},
	{"tcpsim.timeouts_per_req", "ratio"},
	{"tcpsim.retransmits", "count"},
	{"lb.new_flows", "count"},
	{"lb.fallbacks", "count"},
	{"packet.cong_observed", "count"},
}

var workloadNames = []string{"relay-small", "relay-bulk", "reconnect-step", "sim-dst"}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: relay-small, relay-bulk, reconnect-step or sim-dst")
	seed := flag.Int64("seed", 1, "input seed: keys, operation mix and the order of the DST scenario pool")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lbbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	switch _, live := liveSpecs[*workload]; {
	case live && *trace == 0:
		res, err = liveEndToEnd(*workload, *seed, d)
	case live:
		res, err = liveTraced(*workload, *seed, d)
	case *workload == "sim-dst" && *trace == 0:
		res, err = simEndToEnd(*seed, d)
	case *workload == "sim-dst":
		res, err = simTraced(*seed, d)
	default:
		fmt.Fprintf(os.Stderr, "lbbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "lbbench: %s: metric %s could not be measured\n", *workload, m.name)
			os.Exit(1)
		}
	}
	printTable(res.Metrics, want)
	fmt.Printf("error_ratio %.6f (%d failed of %d attempted)\n",
		(&tally{attempted: res.Attempted, failed: res.Failed}).errorRatio(), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printTable(m metrics, order []metricSpec) {
	for _, s := range order {
		if v, ok := m[s.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", s.name, v.Value, v.Unit)
		}
	}
}

func newResult(t *tally) *result {
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics{},
	}
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// setLatency sets latency_p50_us and, when the tail has enough samples,
// latency_p99_us; otherwise that metric stays missing.
func setLatency(m metrics, lat []time.Duration) {
	s := sorted(lat)
	if p50, ok := s.median(); ok {
		m.set("latency_p50_us", "us", us(p50))
	}
	if p99, ok := s.tail(0.99); ok {
		m.set("latency_p99_us", "us", us(p99))
	} else {
		fmt.Printf("latency_p99_us: %d samples, fewer than %d beyond p99; not reported\n", len(s), minTail)
	}
}
