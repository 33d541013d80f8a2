package main

import (
	"fmt"
	"time"
)

// liveEndToEnd is the untraced run of a live workload. The timed time is
// split into episodes, each on a freshly set-up system (a stepped workload
// steps a third of the way into every episode), so one run holds several
// independent trials of routing and control. Every metric is the median
// over the episodes, so a burst of interference on the host moves it only
// if the burst spans most episodes.
func liveEndToEnd(name string, seed int64, d time.Duration) (*result, error) {
	spec := liveSpecs[name]
	data := newDataset(spec.keys, spec.valueSize)
	var (
		setups, p50s, p99s []time.Duration
		rps, cpuPerReq     []float64
		ops                = &tally{}
		checks             = &tally{}
		samples            int
	)
	for i := 0; i < episodes; i++ {
		t0 := time.Now()
		s, err := startSystem(spec, data, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		ph := runPhase(s, spec, s.proxy.Addr().String(), data, seed+int64(i)*7919, d/episodes, nil, false)
		phaseChecks(checks, ph)
		proxyChecks(checks, s.close())
		ops = combine(ops, &ph.gen.tally)
		lat := sorted(ph.gen.lat)
		samples += len(lat)
		p50, ok := lat.median()
		if !ok {
			return nil, fmt.Errorf("episode %d completed no request", i)
		}
		done := float64(len(lat))
		rps = append(rps, done/ph.gen.elapsed.Seconds())
		cpuPerReq = append(cpuPerReq, us(ph.cpu)/done)
		p50s = append(p50s, p50)
		if p99, ok := lat.tail(0.99); ok {
			p99s = append(p99s, p99)
		} else {
			fmt.Printf("episode %d: %d samples, fewer than %d beyond p99\n", i, len(lat), minTail)
		}
	}

	res := newResult(combine(ops, checks))
	m := res.Metrics
	m.set("throughput_rps", "1/s", medianFloat(rps))
	m.set("latency_p50_us", "us", us(medianDuration(p50s)))
	if len(p99s) == episodes {
		m.set("latency_p99_us", "us", us(medianDuration(p99s)))
	}
	m.set("cpu_us_per_req", "us", medianFloat(cpuPerReq))
	m.set("setup_s", "s", medianDuration(setups).Seconds())
	m.set("max_rss_mib", "MiB", maxRSSMiB())
	fmt.Printf("%s: seed %d, %d requests (%d episodes, %d closed-loop conns each), %d latency samples\n",
		name, seed, ops.completed(), episodes, numConns, samples)
	return res, nil
}

// phaseChecks adds a phase's server-side output checks: every GET hit.
// Client-side byte-for-byte mismatches are already failed operations.
func phaseChecks(t *tally, ph *phase) {
	if ph.gen.integrity > 0 {
		fmt.Printf("check failed: %d GET replies missed or differed from the stored value\n", ph.gen.integrity)
	}
	t.check(ph.hits == ph.gets)
	if ph.hits != ph.gets {
		fmt.Printf("check failed: memcache hit ratio %d/%d, want 1\n", ph.hits, ph.gets)
	}
}

// liveTraced is the traced run of a live workload. It first runs an
// untraced reference phase of half the length on a fresh system, then a
// traced system: a short direct-to-backend leg, and the traced phase with
// the policy, dial and audit hooks wrapped and the status snapshot polled.
func liveTraced(name string, seed int64, d time.Duration) (*result, error) {
	spec := liveSpecs[name]
	data := newDataset(spec.keys, spec.valueSize)
	checks := &tally{}

	ref, err := startSystem(spec, data, nil)
	if err != nil {
		return nil, err
	}
	refPh := runPhase(ref, spec, ref.proxy.Addr().String(), data, seed, d/2, nil, false)
	phaseChecks(checks, refPh)
	proxyChecks(checks, ref.close())

	rec := newRecorder()
	s, err := startSystem(spec, data, rec)
	if err != nil {
		return nil, err
	}
	direct := generate(genOpts{addr: s.backends[0].Addr().String(), reconnectEvery: spec.reconnectEvery,
		dur: max(d/5, time.Second), seed: seed, data: data})
	ph := runPhase(s, spec, s.proxy.Addr().String(), data, seed, d, rec, true)
	phaseChecks(checks, ph)
	st := s.close()
	proxyChecks(checks, st)

	res := newResult(combine(&refPh.gen.tally, &direct.tally, &ph.gen.tally, checks))
	done := float64(ph.gen.completed())
	if done == 0 || refPh.gen.completed() == 0 || direct.completed() == 0 {
		return nil, fmt.Errorf("a phase completed no request")
	}
	elapsed := ph.gen.elapsed.Seconds()
	refP50, _ := sorted(refPh.gen.lat).median()
	p50, _ := sorted(ph.gen.lat).median()
	directP50, _ := sorted(direct.lat).median()
	dials := sorted(s.dials.relayDials())
	m := res.Metrics

	m.set("lbproxy.relay_syscalls_per_req", "count",
		float64(st.RelayReads+st.RelayWrites+st.RelaySplices)/done)
	m.set("lbproxy.added_latency_us_p50", "us", us(refP50-directP50))
	connect, _ := sorted(ph.gen.connects).median()
	m.set("lbproxy.connect_us_p50", "us", us(connect))
	first, _ := sorted(ph.gen.firstReqs).median()
	m.set("lbproxy.first_req_us_p50", "us", us(first))
	dialP50, _ := dials.median()
	m.set("lbproxy.dial_us_p50", "us", us(dialP50))
	dialP99, ok := dials.tail(0.99)
	if !ok {
		fmt.Printf("note: lbproxy.dial_us_p99 has %d relay dials, too few for a p99; reported as 0\n", len(dials))
	}
	m.set("lbproxy.dial_us_p99", "us", us(dialP99))
	m.set("lbproxy.dials_per_conn", "count", float64(len(dials))/float64(max(st.Accepted, 1)))
	m.set("lbproxy.goroutines_max", "count", float64(ph.poll.goroutinesMax))

	m.set("core.samples_per_req", "count", float64(st.Samples)/done)
	m.set("core.tracked_flows_max", "count", float64(ph.poll.trackedMax))
	m.set("core.estimate_ratio", "ratio", estimateRatio(ph))

	share, react := stepResponse(ph, spec)
	m.set("control.slow_share", "ratio", share)
	m.set("control.react_ms", "ms", react)
	m.set("control.publishes_per_s", "1/s", float64(ph.poll.gen1-ph.poll.gen0)/elapsed)
	busy := time.Duration(s.policy.busy.Load())
	m.set("control.policy_calls", "count", float64(s.policy.calls.Load()))
	m.set("control.policy_busy_us", "us", us(busy))
	m.set("control.policy_busy_share", "ratio", busy.Seconds()/elapsed)
	m.set("control.decisions", "count", float64(s.audit.n.Load()))

	m.set("memcache.direct_latency_us_p50", "us", us(directP50))
	m.set("memcache.hit_ratio", "ratio", float64(ph.hits)/float64(max(ph.gets, 1)))
	m.set("process.alloc_bytes_per_req", "B", float64(ph.allocs)/done)
	m.set("process.gc_cycles", "count", float64(ph.gcs))
	zero(m, "dst.scenario_ms_p50", "dst.scenario_ms_max", "tcpsim.timeouts_per_req",
		"tcpsim.retransmits", "lb.new_flows", "lb.fallbacks", "packet.cong_observed")
	fmt.Println("note: dst, tcpsim, lb and packet do no work on live workloads and report 0")

	var dialSum time.Duration
	for _, x := range dials {
		dialSum += x
	}
	fmt.Printf("\nattribution of latency_p50_us (%s, untraced reference run):\n", name)
	attribution(us(refP50), []part{
		{"memcache.direct_latency_us_p50", us(directP50)},
		{"backend dials, amortized per request", us(dialSum) / done},
		{"policy calls, amortized per request", us(busy) / done},
	}, "unattributed (inside lbproxy)")
	refDone := uint64(refPh.gen.completed())
	overhead(float64(refDone)/refPh.gen.elapsed.Seconds(), done/elapsed, us(refP50), us(p50),
		perK(refPh.gcs, refDone), perK(ph.gcs, uint64(done)))
	writeTrace(rec, name, seed)
	return res, nil
}

// estimateRatio compares the proxy's per-backend latency estimate with what
// the client measured over the same window: the whole phase, or the part
// before the step. Polls whose backends have no estimate yet are skipped.
func estimateRatio(ph *phase) float64 {
	end := ph.gen.elapsed
	if ph.stepAt > 0 {
		end = ph.stepAt
	}
	var ests []time.Duration
	for _, p := range ph.poll.points {
		if p.at >= end {
			break
		}
		var sum float64
		var n int
		for _, l := range p.latencies {
			if l > 0 {
				sum += l
				n++
			}
		}
		if n > 0 {
			ests = append(ests, time.Duration(sum/float64(n)*1e6))
		}
	}
	var client []time.Duration
	for i, at := range ph.gen.at {
		if at < end {
			client = append(client, ph.gen.lat[i])
		}
	}
	est, ok1 := sorted(ests).median()
	cl, ok2 := sorted(client).median()
	if !ok1 || !ok2 || cl == 0 {
		fmt.Println("note: core.estimate_ratio: no estimate before the step; reported as 0")
		return 0
	}
	return float64(est) / float64(cl)
}

// stepResponse returns the share of post-step operations served by the
// slowed backend 0 and how long after the step the first polled snapshot
// put backend 0's weight below backend 1's. Without a step both are 0. A
// controller that never reacts reports the time to the end of the phase.
func stepResponse(ph *phase, spec liveSpec) (share, reactMs float64) {
	if spec.stepExtra == 0 || ph.stepAt == 0 {
		fmt.Println("note: no step on this workload; control.slow_share and control.react_ms report 0")
		return 0, 0
	}
	d0 := float64(ph.opsAtEnd[0] - ph.opsAtStep[0])
	d1 := float64(ph.opsAtEnd[1] - ph.opsAtStep[1])
	share = d0 / max(d0+d1, 1)
	for _, p := range ph.poll.points {
		if p.at > ph.stepAt && len(p.weights) == 2 && p.weights[0] < p.weights[1] {
			return share, ms(p.at - ph.stepAt)
		}
	}
	fmt.Println("note: the controller never moved weight off the slowed backend; control.react_ms is the time to the end of the phase")
	return share, ms(ph.gen.elapsed - ph.stepAt)
}

func zero(m metrics, names ...string) {
	for _, n := range names {
		for _, s := range perLayer {
			if s.name == n {
				m.set(n, s.unit, 0)
			}
		}
	}
}

type part struct {
	name string
	us   float64
}

// attribution prints how much of a total each measured part explains and
// lists the remainder under rest.
func attribution(total float64, parts []part, rest string) {
	left := total
	fmt.Printf("  %-44s %10.2f us %6.1f%%\n", "total", total, 100.0)
	for _, p := range parts {
		fmt.Printf("  %-44s %10.2f us %6.1f%%\n", p.name, p.us, 100*p.us/total)
		left -= p.us
	}
	fmt.Printf("  %-44s %10.2f us %6.1f%%\n", rest, left, 100*left/total)
	fmt.Println("  (dial and policy.* spans carry a backend and a time but no request id;")
	fmt.Println("   they join to conn and req spans by time window only)")
}

// overhead compares the traced phase with the untraced reference. GC
// cycles per request are shown beside it: the traced phase holds its spans
// on the heap, which makes collections rarer and can outweigh the
// recording cost.
func overhead(refRPS, rps, refP50, p50, refGCPerK, gcPerK float64) {
	fmt.Printf("tracing overhead: throughput_rps %.1f traced vs %.1f untraced (%+.1f%%), latency_p50_us %.2f vs %.2f (%+.1f%%)\n",
		rps, refRPS, 100*(rps/refRPS-1), p50, refP50, 100*(p50/refP50-1))
	fmt.Printf("  GC cycles per 1000 requests: %.3f traced vs %.3f untraced\n", gcPerK, refGCPerK)
}

// perK is n per thousand of base.
func perK(n uint64, base uint64) float64 { return 1000 * float64(n) / float64(max(base, 1)) }

func writeTrace(rec *recorder, name string, seed int64) {
	path, err := rec.write(traceDir, fmt.Sprintf("%s-%d", name, seed))
	if err != nil {
		fmt.Printf("note: spans not written: %v\n", err)
		return
	}
	fmt.Printf("spans: %d kept, %d dropped, written to %s\n", len(rec.spans), rec.dropped, path)
}

// simEndToEnd is the untraced run of sim-dst. Its figures come from the
// median repetition of each pool scenario (simRun.typical); sim-dst's
// latency is the wall time to simulate simWindow of cluster time.
func simEndToEnd(seed int64, d time.Duration) (*result, error) {
	r, err := runSim(seed, d, nil)
	if err != nil {
		return nil, err
	}
	res := newResult(&r.checks)
	responses, wall, cpu, steps := r.typical()
	if responses == 0 {
		return nil, fmt.Errorf("no simulated request completed")
	}
	m := res.Metrics
	reqs := float64(responses)
	m.set("throughput_rps", "1/s", reqs/wall.Seconds())
	setLatency(m, steps)
	m.set("cpu_us_per_req", "us", us(cpu)/reqs)
	m.set("setup_s", "s", medianDuration(r.setup).Seconds())
	m.set("max_rss_mib", "MiB", maxRSSMiB())
	fmt.Printf("sim-dst: seed %d, %d scenario runs (%d in the typical pass), %d simulated requests in %.2fs; latency over %d steps of %v simulated time\n",
		seed, len(r.reps), simPool, r.stats.Responses, r.elapsed.Seconds(), len(steps), simWindow)
	return res, nil
}

// simTraced is the traced run of sim-dst: an untraced reference of half
// the length, then the traced run with the policy wrapped and decisions
// counted.
func simTraced(seed int64, d time.Duration) (*result, error) {
	ref, err := runSim(seed, d/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	r, err := runSim(seed, d, rec)
	if err != nil {
		return nil, err
	}
	res := newResult(combine(&ref.checks, &r.checks))
	if r.stats.Responses == 0 || ref.stats.Responses == 0 {
		return nil, fmt.Errorf("no simulated request completed")
	}
	m := res.Metrics
	reqs := float64(r.stats.Responses)
	elapsed := r.elapsed.Seconds()
	zero(m, "lbproxy.relay_syscalls_per_req", "lbproxy.added_latency_us_p50", "lbproxy.connect_us_p50",
		"lbproxy.first_req_us_p50", "lbproxy.dial_us_p50", "lbproxy.dial_us_p99", "lbproxy.dials_per_conn",
		"lbproxy.goroutines_max", "core.samples_per_req", "core.tracked_flows_max", "core.estimate_ratio",
		"control.slow_share", "control.react_ms", "control.publishes_per_s",
		"memcache.direct_latency_us_p50", "memcache.hit_ratio")
	fmt.Println("note: lbproxy, memcache and the live-only core/control metrics report 0 on sim-dst")
	busy := time.Duration(r.hooks.busy.Load())
	m.set("control.policy_calls", "count", float64(r.hooks.calls.Load()))
	m.set("control.policy_busy_us", "us", us(busy))
	m.set("control.policy_busy_share", "ratio", busy.Seconds()/elapsed)
	m.set("control.decisions", "count", float64(r.decisions))
	m.set("process.alloc_bytes_per_req", "B", float64(r.allocs)/reqs)
	m.set("process.gc_cycles", "count", float64(r.gcs))
	sc := sorted(r.scenarioWalls())
	p50, _ := sc.median()
	m.set("dst.scenario_ms_p50", "ms", ms(p50))
	m.set("dst.scenario_ms_max", "ms", ms(sc.max()))
	m.set("tcpsim.timeouts_per_req", "ratio", float64(r.stats.Timeouts)/float64(max(r.stats.Sent, 1)))
	m.set("tcpsim.retransmits", "count", float64(r.stats.Retransmits))
	m.set("lb.new_flows", "count", float64(r.stats.NewFlows))
	m.set("lb.fallbacks", "count", float64(r.stats.Fallbacks))
	m.set("packet.cong_observed", "count", float64(r.stats.CongObserved))

	refResp, refWall, _, refSteps := ref.typical()
	resp, wall, _, steps := r.typical()
	refStep, _ := sorted(refSteps).median()
	step, _ := sorted(steps).median()
	fmt.Printf("\nattribution of latency_p50_us (sim-dst: wall time per %v of simulated time, untraced reference run):\n", simWindow)
	attribution(us(refStep), []part{
		{"policy calls, amortized per step", us(busy) / float64(max(len(r.steps), 1))},
	}, "unattributed (simulator, controller, oracles)")
	overhead(float64(refResp)/refWall.Seconds(), float64(resp)/wall.Seconds(), us(refStep), us(step),
		perK(ref.gcs, ref.stats.Responses), perK(r.gcs, r.stats.Responses))
	writeTrace(rec, "sim-dst", seed)
	return res, nil
}
