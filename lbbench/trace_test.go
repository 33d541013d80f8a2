package main

import (
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/dst"
)

type optionalSet struct{ table, weighted, occupancy, latency bool }

func optionals(p control.Policy) optionalSet {
	_, tb := p.(control.TableSource)
	_, w := p.(control.Weighted)
	_, o := p.(control.OccupancyBinder)
	_, l := p.(latencySource)
	return optionalSet{tb, w, o, l}
}

// TestWrapPolicyForwardsExactly: the timing wrapper implements exactly the
// optional interfaces of every registered policy.
func TestWrapPolicyForwardsExactly(t *testing.T) {
	for _, name := range control.PolicyNames() {
		p, err := control.BuildPolicy(name, control.PolicySpec{
			Backends: []string{"a", "b", "c"}, Alpha: 0.1, MinWeight: 0.02,
			Interval: 2 * time.Millisecond, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := &policyHooks{rec: newRecorder()}
		w := wrapPolicy(p, h, nil)
		if got, want := optionals(w), optionals(p); got != want {
			t.Errorf("%s: wrapper implements %+v, policy %+v", name, got, want)
		}
		if w.Name() != p.Name() || w.NumBackends() != p.NumBackends() {
			t.Errorf("%s: wrapper changes Name or NumBackends", name)
		}
	}
}

// TestWrappedDSTDigest: a scenario run through the wrapper and a counting
// audit sink yields the same digest as the plain run, for every
// registered policy and both generators.
func TestWrappedDSTDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DST scenarios")
	}
	for i, name := range control.PolicyNames() {
		for _, congestion := range []bool{false, true} {
			s := simSeed{seed: int64(11 + i), congestion: congestion}
			sc := s.scenario()
			sc.Policy = name
			plain, err := dst.Run(sc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, s.seed, err)
			}
			h := &policyHooks{rec: newRecorder()}
			var steps []time.Duration
			sink := &countingSink{}
			wrapped, err := dst.RunOpts(sc, dst.RunOptions{
				Mutate: func(p control.Policy) control.Policy {
					return wrapPolicy(p, h, &simClock{window: simWindow, samples: &steps})
				},
				Audit: sink,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, s.seed, err)
			}
			if wrapped.Digest != plain.Digest || wrapped.Total != plain.Total {
				t.Errorf("%s seed %d congestion=%v: wrapped digest %x (%d violations), plain %x (%d)",
					name, s.seed, congestion, wrapped.Digest, wrapped.Total, plain.Digest, plain.Total)
			}
			if h.calls.Load() == 0 || sink.n.Load() == 0 || len(steps) == 0 {
				t.Errorf("%s seed %d: hooks saw %d calls, %d decisions, %d steps; want all > 0",
					name, s.seed, h.calls.Load(), sink.n.Load(), len(steps))
			}
		}
	}
}

// TestWrappedProxyPublishes: a live latency-aware proxy behind the
// wrapper still routes from published snapshots, so a slowed backend
// advances the snapshot generation.
func TestWrappedProxyPublishes(t *testing.T) {
	spec := liveSpec{keys: 50, valueSize: 64, reconnectEvery: 5}
	data := newDataset(spec.keys, spec.valueSize)
	s, err := startSystem(spec, data, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.proxy.Snapshot().SnapshotGeneration
	s.backends[0].SetDelay(2 * time.Millisecond)
	g := generate(genOpts{addr: s.proxy.Addr().String(), reconnectEvery: spec.reconnectEvery,
		dur: time.Second, seed: 1, data: data})
	gen1 := s.proxy.Snapshot().SnapshotGeneration
	var checks tally
	proxyChecks(&checks, s.close())
	if g.failed != 0 || g.completed() == 0 || checks.failed != 0 {
		t.Fatalf("load: %d of %d failed, %d checks failed", g.failed, g.attempted, checks.failed)
	}
	if gen1 <= gen0 {
		t.Fatalf("snapshot generation %d -> %d: the wrapped policy never published", gen0, gen1)
	}
	if s.policy.calls.Load() == 0 || len(s.dials.relayDials()) == 0 {
		t.Fatalf("hooks saw %d policy calls and %d relay dials", s.policy.calls.Load(), len(s.dials.relayDials()))
	}
}
