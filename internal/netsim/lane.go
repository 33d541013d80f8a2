package netsim

import (
	"fmt"
	"time"
)

// Lane is a FIFO of events from one source whose times never decrease: a
// link's arrivals, a client's fixed-delay deadlines. Only a proxy for the
// lane's head sits in the Sim's heap; the rest wait in a ring, and each
// takes over the proxy's heap slot as its predecessor dispatches. A long
// monotone stream then costs the heap one entry instead of one per
// pending event.
//
// Dispatch order is exactly what Sim.Schedule would give. Every entry
// draws its seq from the Sim's counter when it is scheduled, so the lane
// is sorted by (at, seq) and its head is the least of its entries. An
// event scheduled earlier than the lane's tail would break that order, so
// it goes straight to the heap with its own seq instead.
//
// Like all of Sim, a Lane is single-goroutine.
type Lane struct {
	sim  *Sim
	ring []event // len is zero or a power of two
	head int     // index of the head entry, whose proxy is in the heap
	n    int     // entries in the ring, head included
}

// NewLane creates an empty lane on s.
func (s *Sim) NewLane() *Lane { return &Lane{sim: s} }

// Schedule runs fn at virtual time at, like Sim.Schedule. It never
// heap-allocates once the ring has grown to the lane's peak backlog.
func (l *Lane) Schedule(at time.Duration, fn func()) {
	s := l.sim
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	if l.n > 0 && at < l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at {
		s.Schedule(at, fn)
		return
	}
	s.seq++
	e := event{at: at, seq: s.seq, fn: fn}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
	if l.n == 1 {
		s.events.push(event{at: at, seq: e.seq, lane: l})
	} else {
		s.backlog++
	}
}

// After runs fn d from now. Negative d is clamped to zero.
func (l *Lane) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	l.Schedule(l.sim.now+d, fn)
}

// pop removes the head entry, whose heap proxy is the heap's minimum, and
// returns its callback. The next entry's proxy replaces the head's in
// place: one sift instead of a pop and a push.
func (l *Lane) pop() func() {
	fn := l.ring[l.head].fn
	l.ring[l.head] = event{} // drop the fn reference so the closure can be collected
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	s := l.sim
	if l.n == 0 {
		s.events.pop()
		return fn
	}
	e := &l.ring[l.head]
	s.events.replaceMin(event{at: e.at, seq: e.seq, lane: l})
	s.backlog--
	return fn
}

// grow doubles the ring, unwrapping it so the head lands at index 0. The
// ring only grows when full, so past its initial 8 slots its length stays
// below twice the lane's peak backlog.
func (l *Lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]event, size)
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring = ring
	l.head = 0
}
