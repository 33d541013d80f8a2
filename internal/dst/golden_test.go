package dst

import (
	"math/rand"
	"testing"
)

// goldenRun is one scenario's recorded outcome.
type goldenRun struct {
	seed       int64
	congestion bool
	digest     uint64
	total      int
	responses  uint64
}

func (g goldenRun) scenario() Scenario {
	if g.congestion {
		return GenerateCongestion(g.seed)
	}
	return Generate(g.seed)
}

// poolSeeds is lbbench's sim-dst scenario pool, rebuilt here rather than
// imported: master seed 20221114 draws 16 seeds, even indices from
// Generate and odd ones from GenerateCongestion.
func poolSeeds() []goldenRun {
	master := rand.New(rand.NewSource(20221114))
	pool := make([]goldenRun, 16)
	for i := range pool {
		pool[i] = goldenRun{seed: master.Int63n(1 << 40), congestion: i%2 == 1}
	}
	return pool
}

// goldenRuns were recorded on the all-heap simulator, before Link and
// RequestClient moved their monotone event streams onto netsim lanes. The
// lanes must leave dispatch order, and so every digest, unchanged: the
// DST counterpart of experiments' TestGoldenDeterminismAcrossQueueRewrite.
//
// They were re-recorded once when Controller.Tick began folding every
// aggregator stripe into one ObserveLatency per backend. Before that the
// tick fed the policy one call per stripe×backend cell, the stripe count
// defaulted to GOMAXPROCS, and the old values held only where GOMAXPROCS
// was 2. The current values equal the old tick's at GOMAXPROCS=1 and hold
// at every GOMAXPROCS (CI runs this test with -cpu 1,2,4,8).
var goldenRuns = []goldenRun{
	// The lbbench sim-dst pool, in poolSeeds order.
	{45962016734, false, 0x7a1b7c04fa2e8e1c, 0, 45746},
	{693298021458, true, 0xab6886aac2eed5b5, 0, 48438},
	{410267588096, false, 0x4cdf9356a66427b6, 0, 109281},
	{340669972049, true, 0x660d94249452d29c, 0, 21412},
	{1030411375319, false, 0xd11438cf54db7ac6, 0, 62993},
	{587676839123, true, 0xd826da95066d6b42, 0, 31857},
	{111488859599, false, 0x9be8ce821b1f28fe, 0, 68825},
	{154996524138, true, 0x1d07b31dd531dc2c, 0, 113948},
	{447443629766, false, 0x800d25243dcd74d8, 0, 56737},
	{94820475552, true, 0x732d8fdc7259d830, 0, 49072},
	{283003012902, false, 0x9b10fc15929dcf14, 0, 22251},
	{1058807243583, true, 0xe2c6f4695d0d12d1, 0, 69248},
	{182320591420, false, 0x3a25b1554b713b43, 0, 69576},
	{907832375030, true, 0xb29684b9cfe7b940, 0, 94165},
	{597063942048, false, 0x626e18f6886ce2a7, 0, 24206},
	{1005726405692, true, 0x0107efc20ae963a7, 0, 30283},
	// Generate seeds 1–8.
	{1, false, 0xfc575e030905bccf, 0, 65338},
	{2, false, 0x0c97bd2a1b46822d, 0, 19090},
	{3, false, 0x7a06f9b4476614f8, 0, 99127},
	{4, false, 0x666b07d90f00e72a, 0, 44845},
	{5, false, 0x4bf9cc39c399040f, 0, 35242},
	{6, false, 0x1597b1e29663e896, 0, 19478},
	{7, false, 0x81dff626bac807f9, 0, 72376},
	{8, false, 0xbb36100afa79371a, 0, 103356},
	// GenerateCongestion seeds 1–8.
	{1, true, 0xeef1e12758eaed3f, 0, 68119},
	{2, true, 0x1350414d626d7f4c, 0, 17760},
	{3, true, 0x7ea25d4debe9ef04, 0, 118637},
	{4, true, 0x3c0827b3744eb88c, 0, 39919},
	{5, true, 0x31e542acbddf3385, 0, 34785},
	{6, true, 0xed4cc87a5da35c79, 0, 19994},
	{7, true, 0x147be6076b952021, 0, 71323},
	{8, true, 0xbfb605b132448e26, 0, 124009},
}

// TestGoldenPoolMatchesLbbench pins the first 16 golden entries to the
// pool construction, so the table cannot drift from the scenarios the
// benchmark runs.
func TestGoldenPoolMatchesLbbench(t *testing.T) {
	for i, p := range poolSeeds() {
		if g := goldenRuns[i]; g.seed != p.seed || g.congestion != p.congestion {
			t.Errorf("pool[%d] = seed %d congestion %v, golden table has seed %d congestion %v",
				i, p.seed, p.congestion, g.seed, g.congestion)
		}
	}
}

// TestGoldenDigests replays every golden scenario and demands the exact
// recorded digest, violation count and response count.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	for _, g := range goldenRuns {
		rep, err := Run(g.scenario())
		if err != nil {
			t.Fatalf("seed %d (congestion=%v): %v", g.seed, g.congestion, err)
		}
		if rep.Digest != g.digest || rep.Total != g.total || rep.Stats.Responses != g.responses {
			t.Errorf("seed %d (congestion=%v): digest %#016x total %d responses %d, golden %#016x %d %d",
				g.seed, g.congestion, rep.Digest, rep.Total, rep.Stats.Responses,
				g.digest, g.total, g.responses)
		}
	}
}
