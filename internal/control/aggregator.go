package control

import (
	"runtime"
	"sync"
	"time"
)

// sampleCell accumulates the latency observations one aggregator shard has
// seen for one backend since the last drain: count/sum for the batch mean,
// min/max for dispersion, and the arrival time of the newest sample (the
// timestamp the merged observation is applied at, so a tick after every
// sample reproduces per-sample policy behavior exactly). Congestion signals
// (retransmissions, dup-ACK runs, zero-window stalls) ride the same cells:
// they are counted per backend on the same stripe the flow's latency samples
// use, so the transport-distress path adds no new synchronization.
type sampleCell struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
	last     time.Duration
	retrans  int64
	dupAcks  int64
	zeroWins int64
}

func (c *sampleCell) add(now, sample time.Duration) {
	if c.count == 0 || sample < c.min {
		c.min = sample
	}
	if c.count == 0 || sample > c.max {
		c.max = sample
	}
	c.count++
	c.sum += sample
	c.last = now
}

// aggShard is one stripe of the aggregator. Each shard's cells live in a
// separately allocated slice and the shard struct itself is padded to two
// cache lines, so concurrent writers on different shards never false-share
// — neither on the mutexes nor on the cells.
type aggShard struct {
	mu    sync.Mutex
	cells []sampleCell
	_     [128 - 32]byte
}

// aggregator batches latency observations shard-locally so the per-packet
// measurement path never synchronizes on global control state. Writers pick
// a shard by flow hash (the same stripe their flow-table shard uses, so a
// dataplane thread touches one set of cache lines), fold the sample into
// that shard's per-backend cell under the shard's own mutex, and return.
// The control tick drains every shard — one bounded merge per control
// interval instead of one synchronized operation per packet. Aggregation
// is lossless: cells accumulate count and sum, so no sample is ever shed
// regardless of how far apart ticks are.
type aggregator struct {
	shards []aggShard
	mask   uint64
}

// newAggregator creates an aggregator with the given stripe count, rounded
// up to a power of two; shards <= 0 defaults to runtime.GOMAXPROCS(0).
func newAggregator(shards, backends int) *aggregator {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	a := &aggregator{
		shards: make([]aggShard, n),
		mask:   uint64(n - 1),
	}
	for i := range a.shards {
		a.shards[i].cells = make([]sampleCell, backends)
	}
	return a
}

// observe folds one latency sample for backend b into the shard selected
// by hash. It takes only that shard's mutex and never allocates or blocks
// on the control plane.
func (a *aggregator) observe(hash uint64, b int, now, sample time.Duration) {
	s := &a.shards[hash&a.mask]
	s.mu.Lock()
	s.cells[b].add(now, sample)
	s.mu.Unlock()
}

// observeCongestion folds congestion-event counts for backend b into the
// shard selected by hash — same stripe discipline as observe, so a dataplane
// thread reporting a retransmit touches the cache lines it already owns.
func (a *aggregator) observeCongestion(hash uint64, b int, retrans, dupAcks, zeroWins int64) {
	s := &a.shards[hash&a.mask]
	s.mu.Lock()
	c := &s.cells[b]
	c.retrans += retrans
	c.dupAcks += dupAcks
	c.zeroWins += zeroWins
	s.mu.Unlock()
}

// merge folds o into c: counts and sums add, min/max and the newest
// arrival combine, so the result is the cell one stripe would have held had
// it seen both cells' samples.
func (c *sampleCell) merge(o *sampleCell) {
	c.retrans += o.retrans
	c.dupAcks += o.dupAcks
	c.zeroWins += o.zeroWins
	if o.count == 0 {
		return
	}
	if c.count == 0 || o.min < c.min {
		c.min = o.min
	}
	if c.count == 0 || o.max > c.max {
		c.max = o.max
	}
	if c.count == 0 || o.last > c.last {
		c.last = o.last
	}
	c.count += o.count
	c.sum += o.sum
}

// drainInto overwrites out (one cell per backend) with the fold of every
// shard's cells and resets them, holding each shard mutex only for its own
// fold. The result does not depend on how samples were spread over stripes,
// so the stripe count — a performance knob — cannot change what the policy
// is fed.
func (a *aggregator) drainInto(out []sampleCell) {
	clear(out)
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		for j := range s.cells {
			out[j].merge(&s.cells[j])
			s.cells[j] = sampleCell{}
		}
		s.mu.Unlock()
	}
}
