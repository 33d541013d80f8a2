package control

import (
	"fmt"
	"math"
	"time"

	"inbandlb/internal/core"
)

// ProportionalConfig parameterizes the multiplicative-weights controller.
type ProportionalConfig struct {
	// Backends names the pool.
	Backends []string
	// TableSize is the Maglev table size (prime). Defaults to 4093.
	TableSize int
	// Gain is the control gain γ: each period, weight_i is scaled by
	// exp(-γ·(L_i-L̄)/L̄). Larger gains converge faster but oscillate.
	// Defaults to 0.5.
	Gain float64
	// MinWeight floors each backend's share. Defaults to 0.02.
	MinWeight float64
	// Interval is the control period. Defaults to 5 ms.
	Interval time.Duration
	// Deadband is the relative latency deviation below which no
	// corrective action is taken — persistent small differences must not
	// compound into a full drain. Defaults to 0.05 (5 %).
	Deadband float64
	// Restore is the per-period leak toward uniform weights applied when
	// a server sits inside the deadband: it rebalances load after a
	// degraded server recovers (a drained server whose latency has
	// equalized would otherwise stay at the floor forever). Defaults to
	// 0.02.
	Restore float64
	// Latency configures per-server aggregation.
	Latency core.ServerLatencyConfig
}

// Proportional is a step beyond the paper's simple strategy (its §5 Q4
// asks for "more sophisticated control loops"): instead of moving a fixed
// fraction α off the single worst server, it adjusts every server's weight
// multiplicatively in proportion to how far its latency sits from the
// pool's weighted mean — the MATE/TeXCP-style gradient flavour the paper
// cites as inspiration. Compared to the α-shift it converges without
// ping-ponging between near-equal servers, because near-zero deviations
// produce near-zero weight changes.
type Proportional struct {
	weightedTable
	cfg ProportionalConfig

	lastUpdate time.Duration
	started    bool

	// OnUpdate, when set, observes every table rebuild.
	OnUpdate func(now time.Duration, weights []float64)
}

// NewProportional builds the controller.
func NewProportional(cfg ProportionalConfig) (*Proportional, error) {
	if cfg.Gain == 0 {
		cfg.Gain = 0.5
	}
	if cfg.Gain < 0 || cfg.Gain > 5 {
		return nil, fmt.Errorf("control: gain %v outside (0,5]", cfg.Gain)
	}
	if cfg.MinWeight == 0 {
		cfg.MinWeight = 0.02
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.Deadband == 0 {
		cfg.Deadband = 0.05
	}
	if cfg.Deadband < 0 || cfg.Deadband >= 1 {
		return nil, fmt.Errorf("control: deadband %v outside [0,1)", cfg.Deadband)
	}
	if cfg.Restore == 0 {
		cfg.Restore = 0.02
	}
	if cfg.Restore < 0 || cfg.Restore > 1 {
		return nil, fmt.Errorf("control: restore %v outside [0,1]", cfg.Restore)
	}
	wt, err := newWeightedTable("proportional", cfg.Backends, cfg.TableSize, cfg.MinWeight, cfg.Latency)
	if err != nil {
		return nil, err
	}
	return &Proportional{weightedTable: wt, cfg: cfg}, nil
}

// Name implements Policy.
func (p *Proportional) Name() string { return "proportional" }

// ObserveLatency implements Policy.
func (p *Proportional) ObserveLatency(b int, now, sample time.Duration) {
	p.lat.Observe(b, now, sample)
	if p.started && now-p.lastUpdate < p.cfg.Interval {
		return
	}
	p.step(now)
}

// step runs one control period: multiplicative weight update toward the
// latency-weighted mean, floored and renormalized.
func (p *Proportional) step(now time.Duration) {
	// Collect fresh latencies; a server without recent samples keeps its
	// weight (no information, no action).
	n := len(p.weights)
	lats := make([]float64, n)
	fresh := make([]bool, n)
	var meanNum, meanDen float64
	for i := 0; i < n; i++ {
		if !p.lat.Fresh(i, now) {
			continue
		}
		fresh[i] = true
		lats[i] = float64(p.lat.Latency(i))
		meanNum += p.weights[i] * lats[i]
		meanDen += p.weights[i]
	}
	if meanDen == 0 || meanNum == 0 {
		return
	}
	mean := meanNum / meanDen

	// The restore leak only runs when every fresh server sits inside the
	// deadband: leaking toward uniform while one server is still degraded
	// would hand weight back to it each period, creating a limit cycle
	// (drain → leak → drain) instead of a stable drained state.
	allInBand := true
	for i := 0; i < n; i++ {
		if !fresh[i] {
			continue
		}
		if dev := (lats[i] - mean) / mean; math.Abs(dev) > p.cfg.Deadband {
			allInBand = false
			break
		}
	}

	uniform := 1.0 / float64(n)
	changed := false
	for i := 0; i < n; i++ {
		if !fresh[i] {
			continue
		}
		dev := (lats[i] - mean) / mean
		var next float64
		if math.Abs(dev) <= p.cfg.Deadband {
			next = p.weights[i]
			if allInBand {
				// Equalized pool: leak toward uniform so recovered
				// servers regain load and small persistent deviations do
				// not compound.
				next += p.cfg.Restore * (uniform - p.weights[i])
			}
		} else {
			factor := math.Exp(-p.cfg.Gain * dev)
			// Clamp single-step movement to 2x either way for stability.
			if factor > 2 {
				factor = 2
			}
			if factor < 0.5 {
				factor = 0.5
			}
			next = p.weights[i] * factor
		}
		if next < p.cfg.MinWeight {
			next = p.cfg.MinWeight
		}
		if math.Abs(next-p.weights[i]) > 1e-4 {
			changed = true
		}
		p.weights[i] = next
	}
	p.lastUpdate = now
	p.started = true
	if !changed {
		return
	}
	// Renormalize to a unit simplex, respecting the floor.
	var sum float64
	for _, w := range p.weights {
		sum += w
	}
	for i := range p.weights {
		p.weights[i] /= sum
		if p.weights[i] < p.cfg.MinWeight {
			p.weights[i] = p.cfg.MinWeight
		}
	}
	if err := p.rebuild(); err == nil {
		if p.OnUpdate != nil {
			p.OnUpdate(now, p.Weights())
		}
	}
}
