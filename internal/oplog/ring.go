package oplog

import (
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Ring is a fixed-size, mutex-free op ring. It serves both recorder roles:
//
//   - the always-on flight recorder, where concurrent host goroutines
//     record while the ring silently keeps only the most recent ops;
//   - capture mode, where the ring is sized to hold a whole run and the
//     harness asserts afterwards that nothing wrapped (core.FinishOpLog).
//
// The record path is allocation-free: one fetch-add to claim a sequence
// number and slot, then seven plain atomic stores bracketed by the slot's
// seq. Readers (Ops, the introspection endpoint, flight dumps) run
// concurrently with writers and discard slots they observe mid-write.
// Each slot takes its ops in sequence order: a writer that laps the ring
// onto a slot whose previous op is not stored yet (its writer was
// preempted, typically) yields until it is, so no op is ever dropped and
// an older op never overwrites a newer one.
type Ring struct {
	slots  []slot
	mask   uint64
	pos    atomic.Uint64
	header atomic.Pointer[Header]
}

// slot holds one Op as seven atomic words, so readers and writers can
// interleave without locks and without tripping the race detector. seq is
// the claim ticket: 0 = never written, slotWriting = store in progress,
// anything else = the 1-based global sequence number of the op it holds.
type slot struct {
	seq  atomic.Uint64
	at   atomic.Uint64
	kfmo atomic.Uint64 // kind<<56 | flags<<48 | mgr<<32 | obj
	addr atomic.Uint64
	size atomic.Uint64
	arg  atomic.Uint64
	note atomic.Uint64 // lane<<32 | note
}

const slotWriting = ^uint64(0)

// DefaultRingCapacity is used when NewRing is given a non-positive
// capacity.
const DefaultRingCapacity = 1 << 12

// NewRing returns a ring retaining the most recent capacity ops, rounded
// up to a power of two.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n) - 1}
}

// Record appends one op, overwriting the oldest once the ring is full.
// Safe for any number of concurrent writers; never allocates.
//
//adsm:noalloc
func (r *Ring) Record(op Op) {
	i := r.pos.Add(1) // 1-based global sequence number
	s := &r.slots[(i-1)&r.mask]
	prev := uint64(0) // the op one lap earlier in this slot
	if n := uint64(len(r.slots)); i > n {
		prev = i - n
	}
	for s.seq.Load() != prev {
		runtime.Gosched() //adsm:allow noalloc: Gosched only yields the processor; reached while a lapped writer finishes this slot
	}
	s.seq.Store(slotWriting)
	s.at.Store(uint64(op.At))
	s.kfmo.Store(uint64(op.Kind)<<56 | uint64(op.Flags)<<48 |
		uint64(op.Mgr)<<32 | uint64(op.Obj))
	s.addr.Store(uint64(op.Addr))
	s.size.Store(uint64(op.Size))
	s.arg.Store(uint64(op.Arg))
	s.note.Store(uint64(op.Lane)<<32 | uint64(op.Note))
	s.seq.Store(i)
}

// Capacity returns the number of ops the ring retains.
func (r *Ring) Capacity() int { return len(r.slots) }

// Total returns the number of ops ever recorded.
func (r *Ring) Total() uint64 { return r.pos.Load() }

// Wrapped reports whether the ring has overwritten old ops: in capture
// mode this means the stream is incomplete and the capacity must be
// raised.
func (r *Ring) Wrapped() bool { return r.pos.Load() > uint64(len(r.slots)) }

// SetHeader attaches the replay header describing the recorded
// configuration.
func (r *Ring) SetHeader(h Header) { r.header.Store(&h) }

// Header returns the attached replay header (zero value if none was set).
func (r *Ring) Header() Header {
	if h := r.header.Load(); h != nil {
		return *h
	}
	return Header{}
}

// Reset discards all recorded ops. It must not race with writers; it
// exists for harnesses that reuse the process-wide flight ring across
// isolated runs.
func (r *Ring) Reset() {
	r.pos.Store(0)
	for i := range r.slots {
		s := &r.slots[i]
		s.seq.Store(0)
		s.at.Store(0)
		s.kfmo.Store(0)
		s.addr.Store(0)
		s.size.Store(0)
		s.arg.Store(0)
		s.note.Store(0)
	}
}

// Ops returns a consistent snapshot of the retained ops, oldest first.
// Slots observed mid-write are skipped.
func (r *Ring) Ops() []Op {
	type rec struct {
		seq uint64
		op  Op
	}
	recs := make([]rec, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq == slotWriting {
			continue
		}
		kfmo := s.kfmo.Load()
		lanenote := s.note.Load()
		op := Op{
			At:    sim.Time(s.at.Load()),
			Kind:  Kind(kfmo >> 56),
			Flags: uint8(kfmo >> 48),
			Mgr:   uint16(kfmo >> 32),
			Obj:   uint32(kfmo),
			Addr:  mem.Addr(s.addr.Load()),
			Size:  int64(s.size.Load()),
			Arg:   int64(s.arg.Load()),
			Note:  uint32(lanenote),
			Lane:  uint32(lanenote >> 32),
		}
		// A writer may have reclaimed the slot while the fields were
		// loading; re-checking seq rejects the torn read.
		if s.seq.Load() != seq {
			continue
		}
		recs = append(recs, rec{seq, op})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]Op, len(recs))
	for i, rc := range recs {
		out[i] = rc.op
	}
	return out
}

// Snapshot packages the ring's current contents and header as a Log
// (Totals and Metrics left for the caller).
func (r *Ring) Snapshot() *Log {
	return &Log{Header: r.Header(), Ops: r.Ops()}
}
