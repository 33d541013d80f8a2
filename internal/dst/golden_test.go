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
var goldenRuns = []goldenRun{
	// The lbbench sim-dst pool, in poolSeeds order.
	{45962016734, false, 0x2796289a46aa03c9, 0, 46415},
	{693298021458, true, 0x78c00ff0e59d95df, 0, 47554},
	{410267588096, false, 0x050d210c20dde383, 0, 109094},
	{340669972049, true, 0x098812de6f7467ba, 0, 21487},
	{1030411375319, false, 0x80da5a1ac3621d19, 0, 62878},
	{587676839123, true, 0x1e422af49a7cc9b8, 0, 33239},
	{111488859599, false, 0x2bf5c6928c197729, 0, 64108},
	{154996524138, true, 0x528b8b452d1b311e, 0, 114089},
	{447443629766, false, 0xed59575f01544fe0, 0, 56840},
	{94820475552, true, 0x286419b89c927ba6, 0, 49068},
	{283003012902, false, 0xe9f780db98006f66, 0, 22297},
	{1058807243583, true, 0x37a3456a55a0faf3, 0, 68855},
	{182320591420, false, 0xafd55be6829bdacf, 0, 69463},
	{907832375030, true, 0x68115a4d03bdcfd6, 0, 94165},
	{597063942048, false, 0x0df27d08539c2f57, 0, 24040},
	{1005726405692, true, 0x0b28724f1948234c, 0, 30246},
	// Generate seeds 1–8.
	{1, false, 0xaf92dcea3731dc76, 0, 64916},
	{2, false, 0xa03f4fe4c9cc606f, 0, 19657},
	{3, false, 0xf048e519782e1c55, 0, 99586},
	{4, false, 0xaf872c1596b84d91, 0, 44853},
	{5, false, 0xdcc8857888fed972, 0, 35582},
	{6, false, 0x52eb945bcaf04d4e, 0, 19442},
	{7, false, 0x99e0bb756f6e6900, 0, 72089},
	{8, false, 0xb00b978a57a465a4, 0, 103836},
	// GenerateCongestion seeds 1–8.
	{1, true, 0x42be45b5e19322de, 0, 66020},
	{2, true, 0xa06592716cb595af, 0, 17768},
	{3, true, 0x8bc27f6b60a31487, 0, 118978},
	{4, true, 0x0586f826fa10b8ce, 0, 39724},
	{5, true, 0xcac55e71c72b566f, 0, 35003},
	{6, true, 0xbd8fbcc1debb4f9f, 0, 19968},
	{7, true, 0x8bb6d622889f17b1, 0, 70942},
	{8, true, 0xb8656a8d5f4e9d0f, 0, 124480},
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
