package lbproxy

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/memcache"
)

// relayLeg is one relay path's outcome under the differential workload.
type relayLeg struct {
	stats     Stats // after Close
	latencies []float64
	clientMs  float64 // median client-observed round trip of successful ops
	okOps     int
	failed    int // connections cut short by an injected fault
}

// runRelayLeg drives a seeded memcache workload through a proxy with the
// given relay mode. Every backend's listener is wrapped in a seeded chaos
// schedule (accept-time refusals plus mid-stream resets), so the relay's
// teardown paths run alongside its steady state. The proxy's own sockets
// stay *net.TCPConn, so a splice leg really splices.
func runRelayLeg(t *testing.T, splice bool, seed int64, serviceDelay time.Duration) relayLeg {
	t.Helper()
	const (
		nBackends   = 2
		workers     = 4
		connsPerWkr = 12
		opsPerConn  = 8
	)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	addrs := make([]string, nBackends)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(seed) + uint64(i)*8
		sched := faults.ConnStack{
			faults.Flaky{P: 0.1, Seed: base}, // refuse at accept
			faults.Flaky{P: 0.15, Seed: base + 2, Fault: faults.ConnFault{Kind: faults.ConnReset, AfterBytes: 600}},
		}
		srv := memcache.NewServer()
		srv.SetDelay(serviceDelay)
		srv.UseListener(faults.NewChaosListener(lis, sched, clock))
		go func() { _ = srv.Serve() }()
		defer srv.Close()
		addrs[i] = lis.Addr().String()
	}

	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: addrs, Alpha: 0.1, TableSize: 1021,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := New(Config{
		Backends: addrs,
		Policy:   la,
		Shards:   4,
		Splice:   splice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	paddr := proxy.Addr().String()

	var (
		mu  sync.Mutex
		leg relayLeg
		rtt []time.Duration
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var mine []time.Duration
			failed := 0
			for c := 0; c < connsPerWkr; c++ {
				cli, err := memcache.Dial(paddr, 2*time.Second)
				if err != nil {
					t.Errorf("dial proxy: %v", err)
					return
				}
				_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
				for op := 0; op < opsPerConn; op++ {
					key := fmt.Sprintf("k%d", rng.Intn(16))
					val := make([]byte, 32+rng.Intn(224))
					rng.Read(val)
					t0 := time.Now()
					if op%2 == 0 {
						err = cli.Set(key, val)
					} else {
						_, _, err = cli.Get(key)
					}
					if err != nil {
						failed++
						break
					}
					mine = append(mine, time.Since(t0))
				}
				_ = cli.Close()
			}
			mu.Lock()
			rtt = append(rtt, mine...)
			leg.failed += failed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if len(rtt) == 0 {
		_ = proxy.Close()
		t.Fatal("no operation succeeded")
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	leg.okOps = len(rtt)
	leg.clientMs = rtt[len(rtt)/2].Seconds() * 1e3

	// Let the relays notice their clients left and a few control ticks
	// merge the last samples, then read the estimator's view.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	leg.latencies = proxy.Snapshot().LatenciesMs
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	leg.stats = proxy.Stats()
	return leg
}

// TestProxyRelayDifferential runs one seeded memcache workload under one
// seeded backend fault schedule through both relay paths — splice(2) and
// the userspace copy — and checks they agree on everything the control
// loop consumes: the accounting identity, lossless sample delivery, how
// many samples the workload yields, and an estimate that tracks what the
// clients saw.
func TestProxyRelayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket differential test")
	}
	const (
		seed         = 11
		serviceDelay = 2 * time.Millisecond
	)
	legs := map[string]relayLeg{
		"splice": runRelayLeg(t, true, seed, serviceDelay),
		"copy":   runRelayLeg(t, false, seed, serviceDelay),
	}
	for _, name := range []string{"splice", "copy"} {
		leg := legs[name]
		st := leg.stats
		t.Logf("%s: ok ops %d, faulted conns %d, client median %.2fms, estimates %v ms, samples %d, splices %d, perBackend %v",
			name, leg.okOps, leg.failed, leg.clientMs, leg.latencies, st.Samples, st.RelaySplices, st.PerBackend)
		assertIdentity(t, st)
		if st.Samples != st.SamplesDelivered {
			t.Errorf("%s: samples %d, delivered %d after Close",
				name, st.Samples, st.SamplesDelivered)
		}
		if st.Samples == 0 {
			t.Errorf("%s: no estimator samples", name)
		}
		if leg.failed == 0 {
			t.Errorf("%s: the fault schedule never cut a connection short", name)
		}
		// Each estimate is judged against its own leg's client median:
		// host load inflates both together, so comparing absolute numbers
		// across legs would not survive a busy machine. Only backends that
		// served enough connections have a meaningful estimate.
		judged := 0
		for i, n := range st.PerBackend {
			if n < 8 || i >= len(leg.latencies) {
				continue
			}
			judged++
			if r := leg.latencies[i] / leg.clientMs; r < 0.5 || r > 2.0 {
				t.Errorf("%s: backend %d estimate %.2fms does not track client median %.2fms (ratio %.2f)",
					name, i, leg.latencies[i], leg.clientMs, r)
			}
		}
		if judged == 0 {
			t.Errorf("%s: no backend served enough connections to judge its estimate", name)
		}
	}
	if spliceAvailable() && legs["splice"].stats.RelaySplices == 0 {
		t.Error("splice leg recorded no splice syscalls")
	}
	if n := legs["copy"].stats.RelaySplices; n != 0 {
		t.Errorf("copy leg recorded %d splice syscalls", n)
	}
	// Both paths timestamp the same request-direction arrivals, so the same
	// workload must yield about the same number of samples. The fault
	// schedule is keyed by per-backend accept order, which routing can
	// permute between legs, hence a tolerance rather than equality.
	a, b := float64(legs["splice"].stats.Samples), float64(legs["copy"].stats.Samples)
	if lo, hi := min(a, b), max(a, b); lo < 0.75*hi {
		t.Errorf("relay paths disagree on sample count: splice %v, copy %v", a, b)
	}
}
