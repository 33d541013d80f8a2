package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// span is one timed call made by or into the benchmark. Times are
// nanoseconds since the recorder started. Parent is 0 for a root span.
type span struct {
	ID, Parent uint64
	Name       string
	Start, Dur int64
	Backend    int // -1 when the call has no backend
}

// maxSpans caps the spans kept in memory (about 30 MiB); later ones are
// counted as dropped so a long traced run cannot exhaust memory.
const maxSpans = 500_000

// maxPolicySpans caps the policy.* spans within maxSpans: the simulator
// makes millions of policy calls, which would otherwise crowd out the
// dst.run spans that come later.
const maxPolicySpans = 100_000

// recorder keeps spans in memory until the run ends. Client workers
// collect their own spans and hand them over once (add); the hooks
// below, called from proxy and controller goroutines, append under mu.
type recorder struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) id() uint64 { return r.ids.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(ss ...span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	room := maxSpans - len(r.spans)
	if room < len(ss) {
		r.dropped += int64(len(ss) - max(room, 0))
		ss = ss[:max(room, 0)]
	}
	r.spans = append(r.spans, ss...)
}

// drop counts n spans that were not kept.
func (r *recorder) drop(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped += n
}

// timed records a root span for a call that started at start.
func (r *recorder) timed(name string, start time.Time, d time.Duration, backend int) {
	r.add(span{ID: r.id(), Name: name, Start: r.since(start), Dur: int64(d), Backend: backend})
}

// write stores the spans as JSON lines under dir and returns the path.
func (r *recorder) write(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"dur_ns":%d,"backend":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Start, s.Dur, s.Backend)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// policyHooks accumulates the timing of every call into a wrapped
// control.Policy. A nil *policyHooks leaves calls untimed. Calls are serialized by the controller, but the counters
// are read by the benchmark while the proxy runs, hence the atomics.
type policyHooks struct {
	rec   *recorder // nil: count and time only, record no spans
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds inside the policy
}

// begin returns the start time of a call; a nil *policyHooks times nothing.
func (h *policyHooks) begin() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

func (h *policyHooks) done(name string, start time.Time, backend int) {
	if h == nil {
		return
	}
	d := time.Since(start)
	n := h.calls.Add(1)
	h.busy.Add(int64(d))
	switch {
	case h.rec == nil:
	case n <= maxPolicySpans:
		h.rec.timed(name, start, d, backend)
	default:
		h.rec.drop(1)
	}
}

// latencySource is the optional interface lbproxy's status snapshot reads
// per-backend estimates through.
type latencySource interface {
	Latency() *core.ServerLatency
}

// timedPolicy times the Policy methods of the policy it wraps.
type timedPolicy struct {
	inner control.Policy
	h     *policyHooks
	clock *simClock // nil outside the simulator
}

// simClock turns the virtual times the simulator passes into policy calls
// into wall-clock step latencies: each time virtual time crosses a window
// boundary, it records the wall time since the previous crossing, divided
// by the windows crossed. It is single-threaded, like the simulator.
type simClock struct {
	window  time.Duration
	next    time.Duration // next virtual boundary; 0 before the first call
	last    time.Time
	samples *[]time.Duration
}

func (c *simClock) tick(now time.Duration) {
	if c == nil || now < c.next {
		return
	}
	wall := time.Now()
	if c.next > 0 {
		k := (now-c.next)/c.window + 1
		*c.samples = append(*c.samples, wall.Sub(c.last)/k)
		c.next += k * c.window
	} else {
		c.next = (now/c.window + 1) * c.window
	}
	c.last = wall
}

func (t *timedPolicy) Name() string     { return t.inner.Name() }
func (t *timedPolicy) NumBackends() int { return t.inner.NumBackends() }

func (t *timedPolicy) Pick(key packet.FlowKey, now time.Duration) int {
	t.clock.tick(now)
	start := t.h.begin()
	b := t.inner.Pick(key, now)
	t.h.done("policy.Pick", start, b)
	return b
}

func (t *timedPolicy) ObserveLatency(b int, now, sample time.Duration) {
	t.clock.tick(now)
	start := t.h.begin()
	t.inner.ObserveLatency(b, now, sample)
	t.h.done("policy.ObserveLatency", start, b)
}

func (t *timedPolicy) FlowClosed(b int, now time.Duration) {
	t.clock.tick(now)
	start := t.h.begin()
	t.inner.FlowClosed(b, now)
	t.h.done("policy.FlowClosed", start, b)
}

// The optional interfaces are forwarded by small components, combined in
// wrapPolicy so the wrapper implements exactly the ones the policy does.
// The controller and the DST harness type-assert on them: hiding one would
// move routing off the snapshot path or switch oracles off.
type tableFwd struct{ t *timedPolicy }

func (f tableFwd) Table() *maglev.Table {
	start := f.t.h.begin()
	tb := f.t.inner.(control.TableSource).Table()
	f.t.h.done("policy.Table", start, -1)
	return tb
}

type weightsFwd struct{ t *timedPolicy }

func (f weightsFwd) Weights() []float64 {
	start := f.t.h.begin()
	w := f.t.inner.(control.Weighted).Weights()
	f.t.h.done("policy.Weights", start, -1)
	return w
}

type occupancyFwd struct{ t *timedPolicy }

func (f occupancyFwd) BindOccupancy(fn func(b int) int) {
	start := f.t.h.begin()
	f.t.inner.(control.OccupancyBinder).BindOccupancy(fn)
	f.t.h.done("policy.BindOccupancy", start, -1)
}

type latencyFwd struct{ t *timedPolicy }

func (f latencyFwd) Latency() *core.ServerLatency {
	start := f.t.h.begin()
	l := f.t.inner.(latencySource).Latency()
	f.t.h.done("policy.Latency", start, -1)
	return l
}

// wrapPolicy returns p behind a timing wrapper that implements the same
// optional interfaces as p: TableSource, Weighted, OccupancyBinder and
// latencySource. clock is nil outside the simulator.
func wrapPolicy(p control.Policy, h *policyHooks, clock *simClock) control.Policy {
	t := &timedPolicy{inner: p, h: h, clock: clock}
	tb, w, o, l := tableFwd{t}, weightsFwd{t}, occupancyFwd{t}, latencyFwd{t}
	mask := 0
	if _, ok := p.(control.TableSource); ok {
		mask |= 1
	}
	if _, ok := p.(control.Weighted); ok {
		mask |= 2
	}
	if _, ok := p.(control.OccupancyBinder); ok {
		mask |= 4
	}
	if _, ok := p.(latencySource); ok {
		mask |= 8
	}
	switch mask {
	case 1:
		return struct {
			*timedPolicy
			tableFwd
		}{t, tb}
	case 2:
		return struct {
			*timedPolicy
			weightsFwd
		}{t, w}
	case 3:
		return struct {
			*timedPolicy
			tableFwd
			weightsFwd
		}{t, tb, w}
	case 4:
		return struct {
			*timedPolicy
			occupancyFwd
		}{t, o}
	case 5:
		return struct {
			*timedPolicy
			tableFwd
			occupancyFwd
		}{t, tb, o}
	case 6:
		return struct {
			*timedPolicy
			weightsFwd
			occupancyFwd
		}{t, w, o}
	case 7:
		return struct {
			*timedPolicy
			tableFwd
			weightsFwd
			occupancyFwd
		}{t, tb, w, o}
	case 8:
		return struct {
			*timedPolicy
			latencyFwd
		}{t, l}
	case 9:
		return struct {
			*timedPolicy
			tableFwd
			latencyFwd
		}{t, tb, l}
	case 10:
		return struct {
			*timedPolicy
			weightsFwd
			latencyFwd
		}{t, w, l}
	case 11:
		return struct {
			*timedPolicy
			tableFwd
			weightsFwd
			latencyFwd
		}{t, tb, w, l}
	case 12:
		return struct {
			*timedPolicy
			occupancyFwd
			latencyFwd
		}{t, o, l}
	case 13:
		return struct {
			*timedPolicy
			tableFwd
			occupancyFwd
			latencyFwd
		}{t, tb, o, l}
	case 14:
		return struct {
			*timedPolicy
			weightsFwd
			occupancyFwd
			latencyFwd
		}{t, w, o, l}
	case 15:
		return struct {
			*timedPolicy
			tableFwd
			weightsFwd
			occupancyFwd
			latencyFwd
		}{t, tb, w, o, l}
	}
	return t
}

// dialHooks wraps lbproxy's Config.Dial. The proxy routes both relay dials
// and health-probe dials through it; they are told apart by the timeout
// each passes (relayDialTimeout versus probeTimeout, both set explicitly
// in the proxy config). Only successful relay dials are recorded; a failed
// one shows in lbproxy's DialErrors.
type dialHooks struct {
	rec      *recorder
	backends map[string]int

	mu    sync.Mutex
	relay []time.Duration
}

func (d *dialHooks) dial(addr string, timeout time.Duration) (net.Conn, error) {
	start := time.Now()
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err == nil && timeout == relayDialTimeout {
		dur := time.Since(start)
		d.mu.Lock()
		d.relay = append(d.relay, dur)
		d.mu.Unlock()
		d.rec.timed("dial", start, dur, d.backends[addr])
	}
	return c, err
}

func (d *dialHooks) relayDials() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.relay...)
}

// countingSink is an auditlog.Sink that only counts decisions.
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) Note(*auditlog.Record) { c.n.Add(1) }
