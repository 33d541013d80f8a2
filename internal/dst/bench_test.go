package dst

import "testing"

// BenchmarkDSTPool runs lbbench's 16-scenario sim-dst pool once per
// iteration: the simulator's end-to-end speed on the workload the
// benchmark gates, without the live-process harness around it.
func BenchmarkDSTPool(b *testing.B) {
	pool := poolSeeds()
	b.ReportAllocs()
	var responses uint64
	for i := 0; i < b.N; i++ {
		for _, g := range pool {
			rep, err := Run(g.scenario())
			if err != nil {
				b.Fatal(err)
			}
			if rep.Failed() {
				b.Fatalf("seed %d (congestion=%v): %v", g.seed, g.congestion, rep.Violations[0])
			}
			responses += rep.Stats.Responses
		}
	}
	b.ReportMetric(float64(responses)/float64(b.N), "responses/op")
}
