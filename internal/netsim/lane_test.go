package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// laneMix is one randomized workload of heap events and lane streams. The
// same mix runs twice: once with real lanes, once as the all-heap
// reference, where every lane schedule is a plain Sim.Schedule.
type laneMix struct {
	s      *Sim
	lanes  []func(at time.Duration, fn func())
	delays []time.Duration // each lane's constant delay
	trace  []laneDispatch
	ids    int
	budget int // events callbacks may still spawn
}

type laneDispatch struct {
	id int
	at time.Duration
}

func newLaneMix(seed int64, lanes int, reference bool) *laneMix {
	m := &laneMix{s: NewSim(seed), budget: 3000}
	for k := 0; k < lanes; k++ {
		m.delays = append(m.delays, time.Duration(k+1)*3*time.Microsecond)
		if reference {
			m.lanes = append(m.lanes, m.s.Schedule)
		} else {
			m.lanes = append(m.lanes, m.s.NewLane().Schedule)
		}
	}
	return m
}

// schedule places a new event on lane k (k < 0: the heap) at at.
func (m *laneMix) schedule(k int, at time.Duration) {
	id := m.ids
	m.ids++
	fn := func() { m.fire(id, k) }
	if k < 0 {
		m.s.Schedule(at, fn)
	} else {
		m.lanes[k](at, fn)
	}
}

// fire records the dispatch and spawns children from the sim's own random
// source, which both runs consume identically as long as they dispatch
// identically. Most children go back into the firing event's lane.
func (m *laneMix) fire(id, k int) {
	now := m.s.Now()
	m.trace = append(m.trace, laneDispatch{id, now})
	rng := m.s.Rand()
	if rng.Intn(60) == 0 {
		m.s.Stop()
	}
	for c := rng.Intn(3); c > 0 && m.budget > 0; c-- {
		m.budget--
		lane := k
		if lane < 0 || rng.Intn(4) == 0 {
			lane = rng.Intn(len(m.lanes)+1) - 1
		}
		switch {
		case lane < 0:
			m.schedule(-1, now+time.Duration(rng.Intn(8))*time.Microsecond)
		case rng.Intn(5) == 0:
			// Out of order: may land before the lane's tail.
			m.schedule(lane, now+time.Duration(rng.Intn(int(m.delays[lane]/time.Microsecond)))*time.Microsecond)
		default:
			m.schedule(lane, now+m.delays[lane])
		}
	}
}

// TestLaneMatchesAllHeap drives randomized mixes of heap events and
// several lanes against the all-heap reference: ties at equal times,
// out-of-order lane pushes, callbacks scheduling into their own lane,
// RunUntil cut-offs between lane entries, and Stop/Resume. Dispatch
// sequence, clock, Pending and Stopped must agree after every step.
func TestLaneMatchesAllHeap(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		lanes, ref := newLaneMix(seed, 3, false), newLaneMix(seed, 3, true)
		actions := rand.New(rand.NewSource(seed))
		maxBacklog := 0
		for step := 0; step < 400; step++ {
			switch a := actions.Intn(10); {
			case a < 4: // external schedule, onto the heap or a lane
				k := actions.Intn(4) - 1
				at := lanes.s.Now() + time.Duration(actions.Intn(10))*time.Microsecond
				lanes.schedule(k, at)
				ref.schedule(k, at)
			case a < 7: // cut-off on or between microsecond ticks
				until := lanes.s.Now() + time.Duration(actions.Intn(8000))*time.Nanosecond
				lanes.s.RunUntil(until)
				ref.s.RunUntil(until)
			case a < 8:
				lanes.s.Run()
				ref.s.Run()
			default:
				lanes.s.Resume()
				ref.s.Resume()
			}
			if b := lanes.s.backlog; b > maxBacklog {
				maxBacklog = b
			}
			compareLaneMix(t, seed, step, lanes, ref)
		}
		lanes.s.Resume()
		ref.s.Resume()
		for lanes.s.Pending() > 0 {
			lanes.s.Run()
			ref.s.Run()
			lanes.s.Resume()
			ref.s.Resume()
		}
		compareLaneMix(t, seed, -1, lanes, ref)
		if ref.s.Pending() != 0 || len(lanes.trace) < 1000 {
			t.Fatalf("seed %d: drained with %d reference events pending after %d dispatches",
				seed, ref.s.Pending(), len(lanes.trace))
		}
		if maxBacklog == 0 {
			t.Fatalf("seed %d: no lane ever held a backlog; the mix does not exercise lanes", seed)
		}
	}
}

func compareLaneMix(t *testing.T, seed int64, step int, lanes, ref *laneMix) {
	t.Helper()
	if len(lanes.trace) != len(ref.trace) {
		t.Fatalf("seed %d step %d: %d dispatches, reference %d", seed, step, len(lanes.trace), len(ref.trace))
	}
	for i := range lanes.trace {
		if lanes.trace[i] != ref.trace[i] {
			t.Fatalf("seed %d step %d: dispatch %d is %+v, reference %+v", seed, step, i, lanes.trace[i], ref.trace[i])
		}
	}
	if lanes.s.Now() != ref.s.Now() || lanes.s.Pending() != ref.s.Pending() || lanes.s.Stopped() != ref.s.Stopped() {
		t.Fatalf("seed %d step %d: now %v pending %d stopped %v, reference %v %d %v", seed, step,
			lanes.s.Now(), lanes.s.Pending(), lanes.s.Stopped(), ref.s.Now(), ref.s.Pending(), ref.s.Stopped())
	}
}

// TestLaneOutOfOrderGoesToHeap pins the fallback: an event earlier than
// the lane's tail still dispatches in (at, seq) order.
func TestLaneOutOfOrderGoesToHeap(t *testing.T) {
	s := NewSim(1)
	l := s.NewLane()
	var got []int
	l.Schedule(5, func() { got = append(got, 1) })
	l.Schedule(9, func() { got = append(got, 2) })
	l.Schedule(7, func() { got = append(got, 3) }) // before the tail
	l.Schedule(9, func() { got = append(got, 4) }) // tie with the tail
	if s.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", s.Pending())
	}
	s.Run()
	want := []int{1, 3, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

func TestLaneSchedulePastPanics(t *testing.T) {
	s := NewSim(1)
	s.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling a lane event in the past")
		}
	}()
	s.NewLane().Schedule(5, func() {})
}
