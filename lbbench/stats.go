package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: fewer, and the value is one or two outliers, not a tail.
const minTail = 10

// sample is the sorted view of one latency distribution.
type sample []time.Duration

func sorted(xs []time.Duration) sample {
	s := append(sample(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank is the index of the q-quantile (nearest rank) in a sorted sample.
func (s sample) rank(q float64) int {
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// median is the p50; ok is false for an empty sample.
func (s sample) median() (time.Duration, bool) {
	if len(s) == 0 {
		return 0, false
	}
	return s[s.rank(0.5)], true
}

// tail is the q-quantile, reported only when at least minTail samples lie
// strictly beyond its rank. Otherwise ok is false: the metric is missing,
// never extrapolated.
func (s sample) tail(q float64) (time.Duration, bool) {
	if len(s) == 0 {
		return 0, false
	}
	r := s.rank(q)
	if len(s)-1-r < minTail {
		return 0, false
	}
	return s[r], true
}

func (s sample) max() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tally counts operations against the number attempted. A failed or
// refused operation, and one whose output fails its check, is counted
// once as failed and never enters the latency sample: it is missing any
// latency limit rather than fast.
type tally struct {
	attempted, failed int64
	lat               []time.Duration
}

func (t *tally) ok(d time.Duration) {
	t.attempted++
	t.lat = append(t.lat, d)
}

func (t *tally) fail() {
	t.attempted++
	t.failed++
}

// check records one output check made outside the operation stream (an
// accounting identity, a counter comparison): it is one more attempted
// operation, failed when cond is false.
func (t *tally) check(cond bool) {
	t.attempted++
	if !cond {
		t.failed++
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
}

// combine sums the counts of several tallies; the latencies stay behind.
func combine(ts ...*tally) *tally {
	all := &tally{}
	for _, t := range ts {
		all.attempted += t.attempted
		all.failed += t.failed
	}
	return all
}

func (t *tally) completed() int64 { return t.attempted - t.failed }

func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named metric set that refuses malformed names, so a typo
// cannot reach the result line.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("lbbench: bad metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}
