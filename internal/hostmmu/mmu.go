// Package hostmmu simulates the host CPU's memory-protection hardware and
// the POSIX signal path GMAC relies on: mprotect sets per-page permission
// bits and any CPU access that violates them is delivered synchronously to
// a registered fault handler, charged with a calibrated signal-delivery
// cost (the "Signal" slice of Figure 10).
//
// The real GMAC catches SIGSEGV; in Go, installing a competing SIGSEGV
// handler conflicts with the runtime, so accesses to shared objects flow
// through accessor views (package gmac) which call CheckRead/CheckWrite
// before touching backing memory. The fault points are identical: first
// read of Invalid data, first write to ReadOnly data.
package hostmmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Prot is a page protection value, mirroring PROT_NONE / PROT_READ /
// PROT_READ|PROT_WRITE.
type Prot uint8

// Page protection levels.
const (
	ProtNone Prot = iota
	ProtRead
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// Access distinguishes read faults from write faults.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// Fault describes one protection violation delivered to the handler.
type Fault struct {
	Addr   mem.Addr // faulting address (page-aligned down by the handler if desired)
	Access Access
	// Lane is the host lane of the faulting access, which the handler
	// charges its service to; nil means the shared timeline.
	Lane *sim.Lane
}

// FaultHandler resolves a protection violation. A handler that returns an
// error aborts the access (the process would die with SIGSEGV); a handler
// that returns nil must have upgraded the page permissions so the access
// can be retried.
type FaultHandler func(Fault) error

// ErrSegfault is returned when an access violates protections and no
// handler is installed, or the handler declines to resolve the fault.
var ErrSegfault = errors.New("hostmmu: segmentation fault")

// ErrUnmapped is returned when an access touches a page that was never
// mapped through the MMU.
var ErrUnmapped = errors.New("hostmmu: access to unmapped page")

// ErrFaultLoop is returned when the handler keeps failing to make progress
// on the same page.
var ErrFaultLoop = errors.New("hostmmu: fault handler made no progress")

// Stats counts MMU activity for the experiment reports.
type Stats struct {
	Faults      int64 // protection faults delivered
	ReadFaults  int64
	WriteFaults int64
	Mprotects   int64
	SignalTime  sim.Time // accumulated signal-delivery cost
}

// Page-table sharding. The page table used to be one map under one
// RWMutex: every concurrent lane's protection check and every fault
// handler's mprotect met on that lock. It is now split into mmuShards
// address-range shards — the same 1 MiB-granule Fibonacci hash the core
// registry shards by, so a lane's working set and its neighbour's land on
// different shards — and each protection check touches only the shard of
// the page it probes.
const (
	mmuShardBits    = 4
	mmuShardCount   = 1 << mmuShardBits
	mmuGranuleBits  = 20
	mmuGranuleBytes = 1 << mmuGranuleBits
)

// mmuShard is one slice of the page table.
type mmuShard struct {
	mu    sync.RWMutex
	pages map[mem.Addr]Prot
}

// shardOf returns the shard owning addr's 1 MiB granule.
func (m *MMU) shardOf(addr mem.Addr) *mmuShard {
	g := uint64(addr) >> mmuGranuleBits
	return &m.shards[(g*0x9e3779b97f4a7c15)>>(64-mmuShardBits)]
}

// MMU is the software memory-protection unit. All times are charged to the
// virtual clock; the breakdown receives the Signal category.
//
// The MMU is safe for concurrent use: protection checks from several host
// goroutines read the sharded page table under per-shard shared locks, and
// fault delivery runs with no MMU lock held (the handler re-enters via
// Mprotect), exactly as a real kernel delivers signals outside the
// page-table spinlock. Shard locks are taken one at a time, never nested.
type MMU struct {
	pageSize   int64
	shards     [mmuShardCount]mmuShard
	handler    atomic.Pointer[FaultHandler]
	clock      *sim.Clock
	breakdown  *sim.Breakdown
	signalCost sim.Time // cost of one fault delivery (kernel + user handler entry)

	// Counters are plain atomics: fault delivery is the hot path and must
	// not serialise concurrent faulting goroutines on a stats lock.
	faults      atomic.Int64
	readFaults  atomic.Int64
	writeFaults atomic.Int64
	mprotects   atomic.Int64
	signalTime  atomic.Int64
}

// Config parameterises the MMU.
type Config struct {
	PageSize   int64    // must be a power of two
	SignalCost sim.Time // per-fault delivery cost
}

// New returns an MMU with no pages mapped.
func New(cfg Config, clock *sim.Clock, breakdown *sim.Breakdown) *MMU {
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("hostmmu: page size %d is not a power of two", cfg.PageSize))
	}
	m := &MMU{
		pageSize:   cfg.PageSize,
		clock:      clock,
		breakdown:  breakdown,
		signalCost: cfg.SignalCost,
	}
	for i := range m.shards {
		m.shards[i].pages = make(map[mem.Addr]Prot)
	}
	return m
}

// PageSize returns the MMU page size.
func (m *MMU) PageSize() int64 { return m.pageSize }

// SetHandler installs the fault handler (GMAC's signal handler).
func (m *MMU) SetHandler(h FaultHandler) {
	if h == nil {
		m.handler.Store(nil)
		return
	}
	m.handler.Store(&h)
}

// Stats returns a copy of the accumulated counters.
func (m *MMU) Stats() Stats {
	return Stats{
		Faults:      m.faults.Load(),
		ReadFaults:  m.readFaults.Load(),
		WriteFaults: m.writeFaults.Load(),
		Mprotects:   m.mprotects.Load(),
		SignalTime:  sim.Time(m.signalTime.Load()),
	}
}

func (m *MMU) pageBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(m.pageSize-1)
}

// granuleEnd returns the first page past addr's 1 MiB granule: the point
// where the next page may hash to a different shard.
func granuleEnd(addr mem.Addr) mem.Addr {
	return (addr | (mmuGranuleBytes - 1)) + 1
}

// Map registers [addr, addr+size) with the given protection. Addr must be
// page-aligned; size is rounded up to whole pages.
func (m *MMU) Map(addr mem.Addr, size int64, prot Prot) {
	if addr != m.pageBase(addr) {
		panic(fmt.Sprintf("hostmmu: unaligned map at %#x", uint64(addr)))
	}
	end := addr + mem.Addr(size)
	for p := addr; p < end; {
		// Pages change shard only at granule boundaries: lock once per
		// maximal same-shard run, not once per page.
		stop := granuleEnd(p)
		if stop > end {
			stop = end
		}
		sh := m.shardOf(p)
		sh.mu.Lock()
		for ; p < stop; p += mem.Addr(m.pageSize) {
			sh.pages[p] = prot
		}
		sh.mu.Unlock()
	}
}

// Unmap removes [addr, addr+size) from the page table.
func (m *MMU) Unmap(addr mem.Addr, size int64) {
	if addr != m.pageBase(addr) {
		panic(fmt.Sprintf("hostmmu: unaligned unmap at %#x", uint64(addr)))
	}
	end := addr + mem.Addr(size)
	for p := addr; p < end; {
		stop := granuleEnd(p)
		if stop > end {
			stop = end
		}
		sh := m.shardOf(p)
		sh.mu.Lock()
		for ; p < stop; p += mem.Addr(m.pageSize) {
			delete(sh.pages, p)
		}
		sh.mu.Unlock()
	}
}

// Mprotect changes the protection of [addr, addr+size). All pages in the
// range must be mapped; on an unmapped page the whole call is undone and an
// error returned. The common case (every page mapped) walks each same-shard
// page run under one shard lock, saving old protections on the stack for
// the cold rollback path.
//
//adsm:noalloc
func (m *MMU) Mprotect(addr mem.Addr, size int64, prot Prot) error {
	base := m.pageBase(addr)
	end := addr + mem.Addr(size)
	var oldBuf [32]Prot
	old := oldBuf[:0]
	for p := base; p < end; {
		stop := granuleEnd(p)
		if stop > end {
			stop = end
		}
		sh := m.shardOf(p)
		sh.mu.Lock()
		for ; p < stop; p += mem.Addr(m.pageSize) {
			was, ok := sh.pages[p]
			if !ok {
				sh.mu.Unlock()
				m.rollbackProt(base, p, old)
				return errMprotectUnmapped(p)
			}
			old = append(old, was) //adsm:allow noalloc: backed by the 32-entry stack buffer; block-sized spans fit, and only huge spans (off the fault path) spill
			sh.pages[p] = prot
		}
		sh.mu.Unlock()
	}
	m.mprotects.Add(1)
	return nil
}

// errMprotectUnmapped formats the rolled-back Mprotect error off the hot
// path.
//
//adsm:cold
func errMprotectUnmapped(p mem.Addr) error {
	return fmt.Errorf("%w: mprotect %#x", ErrUnmapped, uint64(p))
}

// rollbackProt restores the saved protections of [base, stop) after a
// failed Mprotect. Cold path: a per-page shard lock is fine here, and the
// affected pages cannot concurrently change — the faulting object's lock is
// held by the caller that is now erroring out.
func (m *MMU) rollbackProt(base, stop mem.Addr, old []Prot) {
	for q, i := base, 0; q < stop; q, i = q+mem.Addr(m.pageSize), i+1 {
		sh := m.shardOf(q)
		sh.mu.Lock()
		sh.pages[q] = old[i]
		sh.mu.Unlock()
	}
}

// Protection returns the protection of the page containing addr, and
// whether that page is mapped.
func (m *MMU) Protection(addr mem.Addr) (Prot, bool) {
	sh := m.shardOf(addr)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p, ok := sh.pages[m.pageBase(addr)]
	return p, ok
}

// CheckRead walks the pages covering [addr, addr+size) and delivers a
// read fault for every page that does not permit reads. It returns once
// the whole range is readable.
func (m *MMU) CheckRead(addr mem.Addr, size int64) error {
	return m.Check(nil, addr, size, AccessRead)
}

// CheckWrite is CheckRead for write access.
func (m *MMU) CheckWrite(addr mem.Addr, size int64) error {
	return m.Check(nil, addr, size, AccessWrite)
}

func (m *MMU) allows(prot Prot, access Access) bool {
	switch access {
	case AccessRead:
		return prot == ProtRead || prot == ProtReadWrite
	default:
		return prot == ProtReadWrite
	}
}

// Check is CheckRead or CheckWrite (by access) for an access made on host
// lane l: signal delivery is charged to l, and every delivered Fault
// carries l to the handler. A nil l is the shared timeline.
func (m *MMU) Check(l *sim.Lane, addr mem.Addr, size int64, access Access) error {
	if size < 0 {
		return fmt.Errorf("hostmmu: negative access size %d", size)
	}
	end := addr + mem.Addr(size)
	for page := m.pageBase(addr); page < end; page += mem.Addr(m.pageSize) {
		// A real CPU re-executes the faulting instruction after the
		// handler returns, so loop until the page permits the access; the
		// handler must make progress or we report a fault loop.
		for tries := 0; ; tries++ {
			sh := m.shardOf(page)
			sh.mu.RLock()
			prot, ok := sh.pages[page]
			sh.mu.RUnlock()
			if !ok {
				return fmt.Errorf("%w: %#x", ErrUnmapped, uint64(page))
			}
			if m.allows(prot, access) {
				break
			}
			if tries >= 2 {
				return fmt.Errorf("%w: page %#x stuck at %s for %s",
					ErrFaultLoop, uint64(page), prot, access)
			}
			if err := m.deliver(Fault{Addr: page, Access: access, Lane: l}); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver runs the fault handler with no MMU lock held: the handler
// re-enters the MMU through Mprotect to upgrade the page.
func (m *MMU) deliver(f Fault) error {
	m.faults.Add(1)
	if f.Access == AccessWrite {
		m.writeFaults.Add(1)
	} else {
		m.readFaults.Add(1)
	}
	m.signalTime.Add(int64(m.signalCost))
	m.clock.AdvanceOn(f.Lane, m.signalCost)
	if m.breakdown != nil {
		m.breakdown.Add(sim.CatSignal, m.signalCost)
	}
	hp := m.handler.Load()
	if hp == nil {
		return fmt.Errorf("%w: %s at %#x (no handler)", ErrSegfault, f.Access, uint64(f.Addr))
	}
	if err := (*hp)(f); err != nil {
		return fmt.Errorf("%w: %s at %#x: %w", ErrSegfault, f.Access, uint64(f.Addr), err)
	}
	return nil
}
