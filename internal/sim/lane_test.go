package sim

import (
	"testing"
)

// TestLanesOverlapCharges: N workers each charging d on their own lane
// model N hardware threads working in parallel — the shared clock ends at
// ~d (max), not N*d (sum).
func TestLanesOverlapCharges(t *testing.T) {
	c := NewClock()
	c.Advance(10 * Microsecond) // pre-existing history
	ends := c.InLanes(c.Now(), 4, func(_ int, l *Lane) {
		c.AdvanceOn(l, 100*Microsecond)
	})

	if got, want := c.Now(), 110*Microsecond; got != want {
		t.Fatalf("shared clock after 4 parallel lanes = %v, want %v (max, not sum)", got, want)
	}
	for i, end := range ends {
		if end != 110*Microsecond {
			t.Fatalf("lane %d ended at %v, want 110us", i, end)
		}
	}
}

// TestLaneIsolation: a lane's charges are invisible to the shared timeline
// and to other lanes until InLanes merges them.
func TestLaneIsolation(t *testing.T) {
	c := NewClock()
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan []Time)

	go func() {
		done <- c.InLanes(c.Now(), 2, func(i int, l *Lane) {
			if i == 1 {
				<-entered
				if got := l.Now(); got != 0 {
					t.Errorf("lane 2 sees %v of lane 1's charges, want 0", got)
				}
				return
			}
			c.AdvanceOn(l, 50*Microsecond)
			if got := c.NowOn(l); got != 50*Microsecond {
				t.Errorf("lane Now = %v, want 50us", got)
			}
			close(entered)
			<-release
		})
	}()

	<-entered
	if got := c.Now(); got != 0 {
		t.Fatalf("shared Now = %v while lane active, want 0", got)
	}
	close(release)
	ends := <-done
	if ends[0] != 50*Microsecond || ends[1] != 0 {
		t.Fatalf("InLanes returned %v, want [50us 0s]", ends)
	}
	if got := c.Now(); got != 50*Microsecond {
		t.Fatalf("shared Now after merge = %v, want 50us", got)
	}
}

// TestLaneAdvanceTo: AdvanceTo inside a lane moves only the lane cursor,
// and the past is still free.
func TestLaneAdvanceTo(t *testing.T) {
	c := NewClock()
	c.InLanes(c.Now(), 1, func(_ int, l *Lane) {
		c.AdvanceToOn(l, 30*Microsecond)
		c.AdvanceToOn(l, 20*Microsecond) // in the past: no-op
		if got := l.Now(); got != 30*Microsecond {
			t.Errorf("lane Now = %v, want 30us", got)
		}
		if got := c.Now(); got != 0 {
			t.Errorf("shared Now = %v inside the lane, want 0", got)
		}
	})
	if got := c.Now(); got != 30*Microsecond {
		t.Fatalf("shared Now = %v, want 30us", got)
	}
}

// TestNoLaneSequentialSemantics: charges on the shared timeline (a nil
// lane) keep the exact serial semantics — Advance sums.
func TestNoLaneSequentialSemantics(t *testing.T) {
	c := NewClock()
	c.Advance(3 * Microsecond)
	c.AdvanceOn(nil, 4*Microsecond)
	if got := c.NowOn(nil); got != 7*Microsecond {
		t.Fatalf("sequential Advance = %v, want 7us (sum)", got)
	}
}

// TestInLanesNoWorkers: InLanes with no workers runs nothing and leaves
// the shared timeline where it was, even when base lies in the past.
func TestInLanesNoWorkers(t *testing.T) {
	c := NewClock()
	c.Advance(9 * Microsecond)
	if ends := c.InLanes(0, 0, func(int, *Lane) { t.Error("worker ran") }); len(ends) != 0 {
		t.Fatalf("InLanes(0 workers) returned %v, want no ends", ends)
	}
	if got := c.Now(); got != 9*Microsecond {
		t.Fatalf("shared Now perturbed to %v", got)
	}
}

// TestLaneIDsFollowWorkerIndex: worker i always runs on lane i+1, however
// the goroutines are scheduled, and the nil lane is lane 0.
func TestLaneIDsFollowWorkerIndex(t *testing.T) {
	c := NewClock()
	for run := 0; run < 50; run++ {
		ids := make([]uint32, 4)
		c.InLanes(c.Now(), len(ids), func(i int, l *Lane) { ids[i] = l.ID() })
		for i, id := range ids {
			if id != uint32(i+1) {
				t.Fatalf("run %d: worker %d on lane %d, want %d", run, i, id, i+1)
			}
		}
	}
	if id := (*Lane)(nil).ID(); id != 0 {
		t.Fatalf("nil lane ID = %d, want 0", id)
	}
}

// TestLaneAllocFree: charging a lane allocates nothing — the dynamic twin
// of the //adsm:noalloc annotations on the lane methods.
func TestLaneAllocFree(t *testing.T) {
	c := NewClock()
	c.InLanes(0, 1, func(_ int, l *Lane) {
		allocs := testing.AllocsPerRun(100, func() {
			c.AdvanceOn(l, 1)
			c.AdvanceToOn(l, c.NowOn(l)+1)
			_ = l.ID()
		})
		if allocs != 0 {
			t.Errorf("lane charge allocates %v times, want 0", allocs)
		}
	})
}
