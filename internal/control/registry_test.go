package control

import (
	"strings"
	"testing"
	"time"

	"inbandlb/internal/core"
)

func testSpec(n int) PolicySpec {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return PolicySpec{
		Backends:  names,
		TableSize: 211,
		MinWeight: 0.05,
		Interval:  2 * time.Millisecond,
		Seed:      7,
	}
}

// TestRegistryBuildsEveryPolicy: every registered name constructs a usable
// policy from the shared spec — the property the DST -dst.policy flag and
// the arena both depend on.
func TestRegistryBuildsEveryPolicy(t *testing.T) {
	names := PolicyNames()
	if len(names) < 6 {
		t.Fatalf("registry has %d policies (%v), expected at least 6", len(names), names)
	}
	for _, name := range names {
		pol, err := BuildPolicy(name, testSpec(3))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if pol.NumBackends() != 3 {
			t.Errorf("%s: NumBackends = %d, want 3", name, pol.NumBackends())
		}
		if pol.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		// One scripted interaction: the built policy is actually driveable.
		b := pol.Pick(testKey(1), time.Millisecond)
		if b < 0 || b >= 3 {
			t.Errorf("%s: pick %d outside pool", name, b)
		}
		pol.ObserveLatency(b, time.Millisecond, 200*time.Microsecond)
		pol.FlowClosed(b, 2*time.Millisecond)
	}
}

// TestRegistryUnknownListsCandidates: the error for a typo'd name must
// enumerate what is registered — it backs lbsim's and the DST flag's
// user-facing messages.
func TestRegistryUnknownListsCandidates(t *testing.T) {
	_, err := BuildPolicy("no-such-policy", testSpec(3))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range []string{"latency-aware", "knapsack", "p2c", "wlc"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestRegistryRejectsEmptyPools: builders validate with errors, never
// panics, on an empty backend list.
func TestRegistryRejectsEmptyPools(t *testing.T) {
	for _, name := range PolicyNames() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked on empty pool: %v", name, r)
				}
			}()
			if _, err := BuildPolicy(name, testSpec(0)); err == nil {
				t.Errorf("%s: accepted an empty pool", name)
			}
		}()
	}
}

// TestRegistryDeterministicSeeds: randomized policies built from the same
// spec replay identical pick sequences.
func TestRegistryDeterministicSeeds(t *testing.T) {
	run := func() []int {
		pol, err := BuildPolicy("p2c", testSpec(4))
		if err != nil {
			t.Fatal(err)
		}
		picks := make([]int, 50)
		for i := range picks {
			picks[i] = pol.Pick(testKey(i), time.Duration(i)*time.Millisecond)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRegistryOptionalInterfaces pins which optional interfaces each
// registered policy satisfies. Snapshots publish a table and weights, the
// audit log records weights, and wrappers forward the occupancy binding and
// the latency view only where these assertions hold, so a policy gaining
// or losing one changes what those layers see.
func TestRegistryOptionalInterfaces(t *testing.T) {
	type latencySource interface {
		Latency() *core.ServerLatency
	}
	want := map[string][4]bool{ // TableSource, Weighted, OccupancyBinder, Latency()
		"latency-aware": {true, true, false, true},
		"proportional":  {true, true, false, true},
		"knapsack":      {true, true, false, true},
		"maglev":        {true, false, false, false},
		"p2c":           {false, false, false, false},
		"wlc":           {false, false, true, true},
	}
	for _, name := range PolicyNames() {
		pol, err := BuildPolicy(name, testSpec(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got [4]bool
		_, got[0] = pol.(TableSource)
		_, got[1] = pol.(Weighted)
		_, got[2] = pol.(OccupancyBinder)
		_, got[3] = pol.(latencySource)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no expectation recorded; add one", name)
			continue
		}
		if got != w {
			t.Errorf("%s: TableSource/Weighted/OccupancyBinder/Latency = %v, want %v", name, got, w)
		}
	}
}
