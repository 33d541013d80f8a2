package control

import (
	"fmt"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// weightedTable is the state the adaptive Maglev policies (LatencyAware,
// Proportional, KnapsackGreedy) share: a weight vector realized as an
// immutable weighted Maglev table, and the per-server latency aggregation
// their control laws read. Each policy embeds it and keeps only its control
// law: how samples move the weights before it calls rebuild.
type weightedTable struct {
	weights []float64
	builder *maglev.Builder
	table   *maglev.Table
	lat     *core.ServerLatency
	updates uint64
}

// newWeightedTable validates the pool and the MinWeight floor, then builds
// the initial equal-weight table. tableSize 0 defaults to 4093, a smaller
// prime than production Maglev's because the controllers rebuild the table
// on every weight change.
func newWeightedTable(policy string, backends []string, tableSize int, minWeight float64, latency core.ServerLatencyConfig) (weightedTable, error) {
	n := len(backends)
	if n < 2 {
		return weightedTable{}, fmt.Errorf("control: %s needs >= 2 backends, have %d", policy, n)
	}
	if minWeight < 0 || minWeight*float64(n) >= 1 {
		return weightedTable{}, fmt.Errorf("control: min weight %v infeasible for %d backends", minWeight, n)
	}
	if tableSize == 0 {
		tableSize = 4093
	}
	builder, err := maglev.NewBuilder(tableSize, backends)
	if err != nil {
		return weightedTable{}, err
	}
	w := weightedTable{
		weights: make([]float64, n),
		builder: builder,
		lat:     core.NewServerLatency(n, latency),
	}
	for i := range w.weights {
		w.weights[i] = 1.0 / float64(n)
	}
	if err := w.rebuild(); err != nil {
		return weightedTable{}, err
	}
	return w, nil
}

// rebuild realizes the current weights as a new table. The builder reuses
// cached per-backend permutations, so each rebuild pays only for the
// population walk (and nothing at all when the weights round-trip back to a
// previously built vector).
func (w *weightedTable) rebuild() error {
	t, err := w.builder.Build(w.weights)
	if err != nil {
		return err
	}
	w.table = t
	w.updates++
	return nil
}

// NumBackends implements Policy.
func (w *weightedTable) NumBackends() int { return len(w.weights) }

// Pick implements Policy.
func (w *weightedTable) Pick(key packet.FlowKey, _ time.Duration) int {
	return w.table.Lookup(key.Hash())
}

// FlowClosed implements Policy (ignored — affinity is the conntrack's job).
func (w *weightedTable) FlowClosed(int, time.Duration) {}

// Weights returns a copy of the current weight vector.
func (w *weightedTable) Weights() []float64 {
	return append([]float64(nil), w.weights...)
}

// Updates returns the number of table builds performed, including the
// initial build (so a freshly constructed policy reports 1).
func (w *weightedTable) Updates() uint64 { return w.updates }

// Latency exposes the per-server aggregation for instrumentation.
func (w *weightedTable) Latency() *core.ServerLatency { return w.lat }

// Table implements TableSource: the current (immutable) routing table, for
// snapshot publication by a Controller.
func (w *weightedTable) Table() *maglev.Table { return w.table }
