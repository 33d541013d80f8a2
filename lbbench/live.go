package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lbproxy"
	"inbandlb/internal/memcache"
)

// The proxy configuration mirrors cmd/lbproxy's defaults. The two dial
// timeouts equal lbproxy's own defaults; they are set explicitly because
// dialHooks tells relay dials from health probes by them.
const (
	relayDialTimeout = 2 * time.Second
	probeTimeout     = time.Second
	healthInterval   = time.Second
	numBackends      = 2
	numConns         = 2
)

// liveSpec is the shape of one live workload.
type liveSpec struct {
	keys, valueSize int
	reconnectEvery  int           // requests per connection; 0 keeps connections open
	delay           time.Duration // backend service delay (memcache SetDelay)
	stepExtra       time.Duration // extra delay on backend 0 from a third of the run; 0 = no step
}

var liveSpecs = map[string]liveSpec{
	"relay-small":    {keys: 1000, valueSize: 64},
	"relay-bulk":     {keys: 256, valueSize: 64 << 10},
	"reconnect-step": {keys: 1000, valueSize: 64, reconnectEvery: 10, delay: 400 * time.Microsecond, stepExtra: time.Millisecond},
}

// dataset holds every key and its self-describing value: the key, the
// value length, then filler derived from the key, so a GET reply can be
// checked byte for byte.
type dataset struct {
	keys   []string
	values [][]byte
}

func newDataset(n, size int) *dataset {
	d := &dataset{keys: make([]string, n), values: make([][]byte, n)}
	for i := range d.keys {
		k := fmt.Sprintf("key:%05d", i)
		v := make([]byte, size)
		head := fmt.Sprintf("%s/%d/", k, size)
		copy(v, head)
		for j := len(head); j < size; j++ {
			v[j] = 'a' + byte((i*131+j*31)%26)
		}
		d.keys[i], d.values[i] = k, v
	}
	return d
}

// system is one in-process deployment: memcache backends behind lbproxy.
type system struct {
	backends []*memcache.Server
	proxy    *lbproxy.Proxy
	serving  sync.WaitGroup

	policy *policyHooks  // nil when untraced
	dials  *dialHooks    // nil when untraced
	audit  *countingSink // nil when untraced
}

// startSystem starts the backends and the proxy, then preloads every key
// into every backend directly. With rec set, the policy, dial and audit
// hooks are wrapped for tracing.
func startSystem(spec liveSpec, data *dataset, rec *recorder) (*system, error) {
	s := &system{}
	addrs := make([]string, numBackends)
	for i := range addrs {
		b := memcache.NewServer()
		if err := b.Listen("127.0.0.1:0"); err != nil {
			s.close()
			return nil, fmt.Errorf("backend listen: %w", err)
		}
		s.backends = append(s.backends, b)
		addrs[i] = b.Addr().String()
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			_ = b.Serve() // returns nil on Close; an accept error surfaces as failed requests
		}()
	}
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends:        addrs,
		Alpha:           0.10,
		MinWeight:       0.02,
		Cooldown:        5 * time.Millisecond,
		HysteresisRatio: 1.3,
		Latency:         core.ServerLatencyConfig{HalfLife: 20 * time.Millisecond},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	cfg := lbproxy.Config{
		Backends:       addrs,
		Policy:         la,
		DialTimeout:    relayDialTimeout,
		HealthInterval: healthInterval,
		HealthTimeout:  probeTimeout,
		Acceptors:      1,
		Splice:         true,
		PoolMaxAge:     30 * time.Second,
		Detector:       control.DetectorConfig{Seed: 1},
	}
	if rec != nil {
		s.policy = &policyHooks{rec: rec}
		cfg.Policy = wrapPolicy(la, s.policy, nil)
		s.dials = &dialHooks{rec: rec, backends: make(map[string]int)}
		for i, a := range addrs {
			s.dials.backends[a] = i
		}
		cfg.Dial = s.dials.dial
		s.audit = &countingSink{}
		cfg.Audit = s.audit
	}
	p, err := lbproxy.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	s.proxy = p
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = p.Serve() // returns nil on Close; an accept error surfaces as failed requests
	}()
	for _, b := range s.backends {
		if err := preload(b.Addr().String(), data); err != nil {
			s.close()
			return nil, err
		}
		b.SetDelay(spec.delay)
	}
	return s, nil
}

func preload(addr string, data *dataset) error {
	c, err := memcache.Dial(addr, relayDialTimeout)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	defer c.Close()
	for i, k := range data.keys {
		if err := c.Set(k, data.values[i]); err != nil {
			return fmt.Errorf("preload %s: %w", k, err)
		}
	}
	return nil
}

// close stops the proxy and the backends and waits for their serve loops.
// It returns the proxy's final counters (zero before the proxy started).
func (s *system) close() lbproxy.Stats {
	var st lbproxy.Stats
	if s.proxy != nil {
		_ = s.proxy.Close() // listener close error: nothing left to release
		st = s.proxy.Stats()
	}
	for _, b := range s.backends {
		_ = b.Close() // same: Close has released everything it can
	}
	s.serving.Wait()
	return st
}

// proxyChecks are the accounting identities that must hold after Close.
func proxyChecks(t *tally, st lbproxy.Stats) {
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	ident := st.Accepted == routed+st.DialErrors+st.Dropped
	if !ident {
		fmt.Printf("check failed: Accepted=%d != sum(PerBackend)=%d + DialErrors=%d + Dropped=%d\n",
			st.Accepted, routed, st.DialErrors, st.Dropped)
	}
	t.check(ident)
	samples := st.Samples == st.SamplesDelivered
	if !samples {
		fmt.Printf("check failed: Samples=%d != SamplesDelivered=%d\n", st.Samples, st.SamplesDelivered)
	}
	t.check(samples)
}

// genOpts drives one closed-loop load phase.
type genOpts struct {
	addr           string
	reconnectEvery int
	dur            time.Duration
	seed           int64
	data           *dataset
	rec            *recorder // nil: no spans
}

// genResult is what one load phase measured. In a traced phase lat and at
// are parallel: each completed request's latency and its start offset.
type genResult struct {
	tally
	at        []time.Duration
	integrity int64 // GET replies that missed or differed from the stored value
	connects  []time.Duration
	firstReqs []time.Duration
	elapsed   time.Duration
}

// generate runs numConns closed-loop clients against addr for o.dur. Each
// client sends its next request only after the previous reply: half GETs,
// half SETs of the key's canonical value, keys uniform, all drawn from the
// seed.
func generate(o genOpts) *genResult {
	start := time.Now()
	deadline := start.Add(o.dur)
	parts := make([]*genResult, numConns)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &genResult{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client(o, start, deadline, rand.New(rand.NewSource(o.seed*1_000_003+int64(w))), parts[w])
		}(w)
	}
	wg.Wait()
	g := &genResult{elapsed: time.Since(start)}
	for _, p := range parts {
		g.merge(&p.tally)
		g.at = append(g.at, p.at...)
		g.integrity += p.integrity
		g.connects = append(g.connects, p.connects...)
		g.firstReqs = append(g.firstReqs, p.firstReqs...)
	}
	return g
}

func client(o genOpts, start, deadline time.Time, rng *rand.Rand, g *genResult) {
	var (
		c       *memcache.Client
		connID  uint64
		connAt  time.Time
		n       int
		spans   []span
		dropped int64
	)
	keep := func(s span) {
		if len(spans) < maxSpans/numConns {
			spans = append(spans, s)
		} else {
			dropped++
		}
	}
	hangup := func() {
		_ = c.Close() // the request stream is over either way
		if o.rec != nil {
			keep(span{ID: connID, Name: "conn", Start: o.rec.since(connAt),
				Dur: int64(time.Since(connAt)), Backend: -1})
		}
		c = nil
	}
	for time.Now().Before(deadline) {
		if c == nil {
			connAt = time.Now()
			conn, err := net.DialTimeout("tcp", o.addr, relayDialTimeout)
			if err != nil {
				g.fail()
				continue
			}
			g.connects = append(g.connects, time.Since(connAt))
			// A hung peer fails the request instead of the run.
			_ = conn.SetDeadline(deadline.Add(5 * time.Second)) // cannot fail on a fresh TCP conn
			c = memcache.NewClient(conn)
			n = 0
			if o.rec != nil {
				connID = o.rec.id()
			}
		}
		k := rng.Intn(len(o.data.keys))
		get := rng.Intn(2) == 0
		t0 := time.Now()
		var (
			v   []byte
			hit bool
			err error
		)
		if get {
			v, hit, err = c.Get(o.data.keys[k])
		} else {
			err = c.Set(o.data.keys[k], o.data.values[k])
		}
		d := time.Since(t0)
		if o.rec != nil {
			keep(span{ID: o.rec.id(), Parent: connID, Name: "req",
				Start: o.rec.since(t0), Dur: int64(d), Backend: -1})
		}
		switch {
		case err != nil:
			g.fail()
			hangup()
			continue
		case get && (!hit || !bytes.Equal(v, o.data.values[k])):
			g.fail()
			g.integrity++
		default:
			g.ok(d)
			if o.rec != nil {
				g.at = append(g.at, t0.Sub(start))
			}
			if n == 0 {
				g.firstReqs = append(g.firstReqs, d)
			}
		}
		n++
		if o.reconnectEvery > 0 && n == o.reconnectEvery {
			hangup()
		}
	}
	if c != nil {
		hangup()
	}
	if o.rec != nil {
		o.rec.add(spans...)
		o.rec.drop(dropped)
	}
}

// backendOps is the total of GETs and SETs each backend has served.
func (s *system) backendOps() []uint64 {
	ops := make([]uint64, len(s.backends))
	for i, b := range s.backends {
		st := b.Stats()
		ops[i] = st.Gets + st.Sets
	}
	return ops
}

// hitCounts sums GETs and hits over the backends.
func (s *system) hitCounts() (gets, hits uint64) {
	for _, b := range s.backends {
		st := b.Stats()
		gets += st.Gets
		hits += st.Hits
	}
	return gets, hits
}
