package sim

import "sync"

// A Lane is a private timeline for one simulated host hardware thread.
//
// The base Clock models a single-threaded host: Advance sums every
// goroutine's CPU charges onto one timeline. The paper's testbed, however,
// is a four-core machine, and GMAC's fault handling runs on whichever core
// touched the shared object — concurrent fault storms on different objects
// overlap on real hardware. InLanes models that: each worker gets a Lane
// whose charges accumulate on a private cursor seeded from a common base
// time, and the lanes merge back into the shared timeline (AdvanceTo-max,
// i.e. parallel composition) when the workers finish.
//
// A lane is a value its worker owns and passes down explicitly: every
// charging entry point (the manager's access, fault, call and sync paths,
// the MMU's signal delivery, device launches and DMA) takes a *Lane, and a
// nil *Lane means the shared timeline. Code that never runs in a lane
// passes nil and keeps the exact sequential semantics. A Lane is used by
// its worker alone, and not after its InLanes call returns.
type Lane struct {
	now int64
	// id is the lane's identity within its InLanes call: worker i runs on
	// lane i+1 (0 means "no lane"). Consumers that attribute work to host
	// threads — the op stream's Op.Lane field, and the race detector built
	// on it — use the id, so identities are small and independent of
	// goroutine scheduling.
	id uint32
}

// ID returns the lane's identity, or 0 for the shared timeline (nil).
//
//adsm:noalloc
func (l *Lane) ID() uint32 {
	if l == nil {
		return 0
	}
	return l.id
}

// Now returns the lane's current time.
//
//adsm:noalloc
func (l *Lane) Now() Time { return Time(l.now) }

// Advance moves the lane forward by d, which must be non-negative.
//
//adsm:noalloc
func (l *Lane) Advance(d Time) {
	if d < 0 {
		panicNegativeAdvance(d)
	}
	l.now += int64(d)
}

// AdvanceTo moves the lane forward to t; a time in the past costs nothing.
//
//adsm:noalloc
func (l *Lane) AdvanceTo(t Time) {
	if int64(t) > l.now {
		l.now = int64(t)
	}
}

// InLanes runs fn(i, lane) for i in [0, n) on n goroutines, each on its own
// lane seeded at base, and waits for them. Worker i runs on lane i+1,
// assigned before any goroutine starts, so lane identities never depend on
// scheduling. Each lane then merges into the shared timeline: the shared
// clock advances to the latest lane end (waiting for the slowest hardware
// thread). InLanes returns every lane's end time, indexed by worker.
//
// Spawners capture base once before the call (typically c.Now()), which
// makes every worker's timeline independent of goroutine start order.
func (c *Clock) InLanes(base Time, n int, fn func(i int, l *Lane)) []Time {
	lanes := make([]Lane, n)
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = Lane{now: int64(base), id: uint32(i + 1)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, &lanes[i])
		}(i)
	}
	wg.Wait()
	ends := make([]Time, n)
	for i := range lanes {
		ends[i] = Time(lanes[i].now)
		c.AdvanceTo(ends[i])
	}
	return ends
}

// NowOn returns the time on lane l, or the shared time when l is nil.
//
//adsm:noalloc
func (c *Clock) NowOn(l *Lane) Time {
	if l != nil {
		return Time(l.now)
	}
	return Time(c.now.Load())
}

// AdvanceOn charges d of serial CPU work to lane l, or to the shared
// timeline when l is nil.
//
//adsm:noalloc
func (c *Clock) AdvanceOn(l *Lane, d Time) {
	if l != nil {
		l.Advance(d)
		return
	}
	c.Advance(d)
}

// AdvanceToOn moves lane l (or the shared timeline, when l is nil) forward
// to t.
//
//adsm:noalloc
func (c *Clock) AdvanceToOn(l *Lane, t Time) {
	if l != nil {
		l.AdvanceTo(t)
		return
	}
	c.AdvanceTo(t)
}
