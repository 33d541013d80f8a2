package netsim

// eventQueue is a hand-rolled 4-ary min-heap specialized to event. It
// replaces container/heap, whose interface-based Push/Pop box every event
// into an `any` — one heap allocation per scheduled event on the hottest
// path in the simulator. Storing events by value in one slice removes the
// boxing and keeps siblings adjacent in memory; the 4-ary shape halves the
// tree depth of a binary heap, trading a few extra comparisons per level
// (all within one or two cache lines) for fewer cache-missing levels on
// deep queues.
//
// Ordering is the strict total order (at, seq): seq is unique per event, so
// the pop sequence is fully determined by the schedule and independent of
// the heap's internal shape. That is what makes swapping the binary heap
// for this one bit-identical for determinism — both dispatch in exactly
// (at, seq) order.
type eventQueue struct {
	ev []event
}

// before reports whether e dispatches before o: earlier time first, FIFO by
// seq among simultaneous events.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (q *eventQueue) Len() int { return len(q.ev) }

// min returns the next event to dispatch without removing it. It must not
// be called on an empty queue.
func (q *eventQueue) min() *event { return &q.ev[0] }

// push inserts e. No allocation occurs beyond amortized slice growth.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	q.siftUp(len(q.ev) - 1)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	ev := q.ev
	root := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{} // drop the fn reference so the closure can be collected
	q.ev = ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return root
}

// replaceMin overwrites the minimum event with e and restores the heap
// property: a pop and a push for the price of one sift.
func (q *eventQueue) replaceMin(e event) {
	q.ev[0] = e
	q.siftDown(0)
}

// siftUp restores the heap property from leaf i toward the root. The moved
// element is held in a register and written once at its final slot (hole
// percolation) instead of swapping at every level.
func (q *eventQueue) siftUp(i int) {
	ev := q.ev
	e := ev[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

// siftDown restores the heap property from the root downward, again
// percolating a hole rather than swapping.
func (q *eventQueue) siftDown(i int) {
	ev := q.ev
	n := len(ev)
	e := ev[i]
	for {
		c := i*4 + 1 // first child
		if c >= n {
			break
		}
		// Find the least of up to four children; they are contiguous, so
		// this scan stays within one or two cache lines.
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if ev[j].before(&ev[m]) {
				m = j
			}
		}
		if !ev[m].before(&e) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
}
