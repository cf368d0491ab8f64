// Package core implements the paper's primary contribution: the ADSM
// shared-memory manager (Section 4), with its object registry, the three
// memory coherence protocols of Figure 6 (batch-update, lazy-update,
// rolling-update), the rolling cache with adaptive rolling size, and the
// CPU-side fault handler. All coherence actions run on the host; the
// accelerator stays passive (the asymmetry that gives ADSM its name).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/oplog"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProtocolKind selects one of the three coherence protocols of Figure 6.
//
//adsm:statecase
type ProtocolKind int

// The coherence protocols evaluated in Section 5.1.
const (
	// BatchUpdate transfers every shared object in both directions at
	// every call/return boundary — the naive write-invalidate protocol
	// programmers tend to write first.
	BatchUpdate ProtocolKind = iota
	// LazyUpdate detects CPU accesses with memory protection hardware at
	// object granularity and transfers only what is needed.
	LazyUpdate
	// RollingUpdate refines lazy-update with fixed-size blocks and a
	// bounded rolling cache of dirty blocks that are eagerly and
	// asynchronously flushed to the accelerator.
	RollingUpdate
)

func (k ProtocolKind) String() string {
	switch k {
	case BatchUpdate:
		return "batch-update"
	case LazyUpdate:
		return "lazy-update"
	case RollingUpdate:
		return "rolling-update"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(k))
	}
}

// ErrNotShared is returned for operations on addresses that are not part of
// any shared object.
var ErrNotShared = errors.New("core: address is not in a shared object")

// ErrSpansObjects is returned when a single host access crosses the end of
// a shared object.
var ErrSpansObjects = errors.New("core: access crosses a shared object boundary")

// ErrAddrConflict is returned by Alloc when the accelerator-chosen address
// range is already occupied in the host address space: the §4.2 conflict
// that requires the SafeAlloc fallback.
var ErrAddrConflict = errors.New("core: shared address range conflicts with host mapping")

// errDead formats the ErrNotShared error for accesses racing with Free.
func errDead(addr mem.Addr) error {
	return fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
}

// Config parameterises a Manager.
type Config struct {
	// Protocol selects the coherence protocol.
	Protocol ProtocolKind
	// BlockSize is the rolling-update block size in bytes. It must be a
	// multiple of the host page size. Ignored by batch and lazy.
	BlockSize int64
	// RollingDelta is the adaptive rolling-size increment per allocation
	// (paper default: 2 blocks). Ignored when FixedRolling > 0.
	RollingDelta int
	// FixedRolling pins the rolling size for the Figure 12 experiment.
	FixedRolling int
	// DisableCoalescing turns off batched eviction DMA: every evicted
	// block is flushed with its own transfer instead of merging
	// address-contiguous victims into one. For A/B comparison in
	// experiments; the default (coalescing on) reduces the interconnect
	// transfer count on streaming write patterns.
	DisableCoalescing bool
	// DisableFaultBatching turns off span-fault service: every host fault
	// fetches exactly its own block, the paper's one-slow-path-per-block
	// behaviour. The default (batching on) resolves the whole
	// address-contiguous run of Invalid blocks the adaptive streak
	// detector predicts in one DMA — the fetch-side mirror of eviction
	// coalescing. For A/B comparison; data results are byte-identical
	// either way.
	DisableFaultBatching bool
	// DisableEvictionOverlap turns off double-buffered eager eviction:
	// every eviction DMA then waits for the H2D engine to go fully idle
	// before issuing (§5.2's "evictions must wait for the previous
	// transfer to finish"). The default (overlap on) admits one in-flight
	// transfer behind the one being issued, so eviction DMA overlaps the
	// fault service that triggered it. Timing-only: transfer counts and
	// bytes are identical either way.
	DisableEvictionOverlap bool

	// Host-side costs of the GMAC API entry points.
	MallocCost, FreeCost, LaunchCost sim.Time
	// TreeNodeCost is charged per binary-search probe of the fault
	// handler's block search (§5.2: the O(log2 n) tree overhead).
	TreeNodeCost sim.Time
	// MprotectCost is charged per protection change.
	MprotectCost sim.Time

	// MaxRetries bounds the transparent retries of injected transfer and
	// launch faults: 0 selects DefaultMaxRetries, negative disables
	// retrying (the first transient fault escalates).
	MaxRetries int
	// RetryBase is the backoff of the first retry in virtual time; attempt
	// i backs off RetryBase<<i. 0 selects DefaultRetryBase.
	RetryBase sim.Time

	// RaceDetect enables the online vector-clock race detector
	// (internal/racecheck): every recorded op is also fed to a detector,
	// races land in Stats.RacesDetected and trigger a flight dump. Off by
	// default — the disabled record path stays a nil check, so the
	// //adsm:noalloc fault hot path is unaffected.
	RaceDetect bool
}

// Manager is the GMAC shared-memory manager: it owns the shared address
// space, the object/block registry, and drives the coherence protocol from
// the CPU side. One Manager manages one accelerator; package sched
// composes several.
//
// The manager is safe for concurrent use by many host goroutines — the
// paper's design point of a multithreaded CPU application faulting into
// accelerator-hosted objects. The lock discipline, from outermost in:
//
//   - Object.mu: taken first by every host-access path; faults on
//     different objects are serviced fully in parallel.
//   - callMu: serialises Invoke/Sync (one call/return window at a time per
//     accelerator) and guards invokeKernel. Never held with an Object.mu
//     already held.
//   - shardMu: the per-shard writer mutexes of the registry (registry.go),
//     taken only by Alloc and Free, one shard at a time, never nested and
//     never with an Object.mu held. Lookups, the fault path included, read
//     the shard's published view and take no lock.
//   - flushMu, evictMu, rollingCache.mu, and the MMU/device/clock locks
//     are leaves: nothing else is acquired under them. The aggregate stats
//     are plain atomics (statsCounters) and take no lock at all.
//
// Cross-object rolling evictions are the one place a fault on object A
// must touch object B: the fault path defers those victims to evictQ and
// every host entry point drains the queue after releasing its own object
// lock, so no two Object.mu are ever held at once.
type Manager struct {
	cfg   Config
	clock *sim.Clock
	bd    *sim.Breakdown
	mmu   *hostmmu.MMU
	va    *mem.VASpace
	dev   *accel.Device

	// moded counts live objects with a non-default access mode, and
	// rollingObjs counts live objects currently governed by rolling-update.
	// Both gate the release/acquire sweeps so default-mode runs skip the
	// mode machinery entirely (protocol.go).
	moded       atomic.Int64
	rollingObjs atomic.Int64
	// reg is the sharded object/block registry (registry.go): per-shard
	// sorted arrays published atomically, so concurrent lanes fault with no
	// lock and allocate without contending on one write lock.
	reg     registry
	rolling *rollingCache
	// stats are the aggregate counters, one atomic per counter
	// (statsCounters); per-object counters are atomic too. The derived
	// metric series read stats without pinning the manager, and lease
	// retires them once it is collected (observe.go).
	stats *statsCounters
	lease *statsLease
	// flushMu guards the eager-eviction double buffer: the completion
	// times of the last two H2D transfers issued by flushRunEager
	// (lastFlush newest). waitH2DSlot stalls only until prevFlush, so one
	// transfer stays in flight while the next is prepared.
	//
	//adsm:lock flushMu 41 nowait
	flushMu              sync.Mutex
	lastFlush, prevFlush sim.Time
	// evictMu guards evictQ, the deferred cross-object eviction victim runs.
	//
	//adsm:lock evictMu 42 nowait
	evictMu sync.Mutex
	evictQ  []evictRun
	// callMu serialises kernel invocation and synchronisation and guards
	// invokeKernel.
	//
	//adsm:lock callMu 10
	callMu sync.Mutex
	tracer *trace.Log
	// spans is the optional span tracer; nil disables span recording.
	spans *trace.Tracer
	// mets are the cached metric-registry handles for the hot paths.
	mets *metricSet
	// id is the process-wide construction sequence number.
	id int
	// retired keeps the final rows of recently freed objects for the
	// introspection endpoint (live rows come from the registry), guarded
	// by introMu because HTTP handlers read it from other goroutines.
	//
	//adsm:lock introMu 46 nowait
	introMu sync.Mutex
	retired []ObjectSnapshot
	// invokeKernel is the kernel currently being dispatched; protocols use
	// it to honour §3.3 object-to-kernel bindings. Guarded by callMu.
	invokeKernel string
	// lost latches once the accelerator is declared lost (fault escalation,
	// recover.go); objects then degrade to host-resident semantics.
	lost atomic.Bool
	// rec is the optional capture recorder (record.go); the process-wide
	// flight recorder is always on regardless. objSeq numbers objects so
	// recorded streams identify them stably across record and replay.
	rec    atomic.Pointer[oplog.Ring]
	objSeq atomic.Uint32
	// race is the optional online race detector (Config.RaceDetect), fed
	// from record; nil when disabled so the hot path pays one nil check.
	// raceDumped latches the one flight dump per manager.
	race       *racecheck.Detector
	raceDumped atomic.Bool
}

// NewManager wires a manager to the host MMU, the host virtual address
// space, and one accelerator. It installs itself as the MMU fault handler.
func NewManager(cfg Config, clock *sim.Clock, bd *sim.Breakdown,
	mmu *hostmmu.MMU, va *mem.VASpace, dev *accel.Device) (*Manager, error) {

	if cfg.Protocol == RollingUpdate && cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("core: rolling-update requires a block size")
	}
	// ModeAuto objects may migrate onto rolling-update under any configured
	// protocol, so a non-zero block size must always be page-granular.
	if cfg.BlockSize != 0 && cfg.BlockSize%mmu.PageSize() != 0 {
		return nil, fmt.Errorf("core: block size %d is not a multiple of the %d-byte page",
			cfg.BlockSize, mmu.PageSize())
	}
	m := &Manager{
		cfg:     cfg,
		clock:   clock,
		bd:      bd,
		mmu:     mmu,
		va:      va,
		dev:     dev,
		rolling: newRollingCache(cfg.FixedRolling, cfg.RollingDelta, cfg.FixedRolling > 0, !cfg.DisableCoalescing),
		stats:   new(statsCounters),
		mets:    newMetricSet(metrics.Default(), cfg.Protocol),
	}
	switch cfg.Protocol {
	case BatchUpdate, LazyUpdate, RollingUpdate:
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
	}
	if cfg.RaceDetect {
		m.race = racecheck.New(m.OpLogHeader())
		m.race.OnRace(m.onRace)
	}
	mmu.SetHandler(m.handleFault)
	registerManager(m)
	exportStats(m)
	return m, nil
}

// onRace reacts to each race the online detector reports: it counts the
// race in Stats.RacesDetected, and the first race triggers a flight dump
// (gated by ADSM_FLIGHT_DIR like every auto dump).
func (m *Manager) onRace(racecheck.Race) {
	m.stats.RacesDetected.Add(1)
	if m.raceDumped.CompareAndSwap(false, true) {
		oplog.AutoDump("race-detected")
	}
}

// RaceDetector returns the online race detector, or nil when disabled.
func (m *Manager) RaceDetector() *racecheck.Detector { return m.race }

// Races returns the online detector's race reports (nil when detection is
// disabled or no race was found).
func (m *Manager) Races() []racecheck.Race {
	if m.race == nil {
		return nil
	}
	return m.race.Races()
}

// Protocol returns the active protocol kind.
func (m *Manager) Protocol() ProtocolKind { return m.cfg.Protocol }

// Device returns the managed accelerator.
func (m *Manager) Device() *accel.Device { return m.dev }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats.load() }

// RollingCapacity returns the current rolling size (0 for other protocols).
func (m *Manager) RollingCapacity() int { return m.rolling.Capacity() }

// RollingLen returns the number of blocks currently in the rolling cache.
func (m *Manager) RollingLen() int { return m.rolling.Len() }

// Objects returns the number of live shared objects.
func (m *Manager) Objects() int {
	return int(m.reg.nobjects.Load())
}

// SetSpanTracer installs (or removes, with nil) a span tracer. Its event
// log becomes the manager's event sink, so one tracer captures both the
// instantaneous protocol events and the timed spans around them.
func (m *Manager) SetSpanTracer(t *trace.Tracer) {
	m.spans, m.tracer = t, nil
	if t != nil {
		m.tracer = t.Log()
	}
}

// SpanTracer returns the installed span tracer, or nil.
func (m *Manager) SpanTracer() *trace.Tracer { return m.spans }

// beginSpan opens a span at the current virtual time if span tracing is
// enabled; the zero SpanID means disabled.
func (m *Manager) beginSpan(l *sim.Lane, name, note string) trace.SpanID {
	if m.spans == nil {
		return 0
	}
	return m.spans.Begin(name, note, m.clock.NowOn(l))
}

// endSpan closes a span opened by beginSpan.
func (m *Manager) endSpan(l *sim.Lane, id trace.SpanID) {
	if m.spans != nil && id != 0 {
		m.spans.End(id, m.clock.NowOn(l))
	}
}

// emit records a trace event if tracing is enabled.
func (m *Manager) emit(l *sim.Lane, e trace.Event) {
	if m.tracer != nil {
		e.At = m.clock.NowOn(l)
		m.tracer.Append(e)
	}
}

// charge advances the CPU clock by d and books it under cat.
func (m *Manager) charge(l *sim.Lane, cat sim.Category, d sim.Time) {
	m.clock.AdvanceOn(l, d)
	if m.bd != nil {
		m.bd.Add(cat, d)
	}
}

// book records already-elapsed clock time under cat (for wrapped calls that
// advanced the clock themselves).
func (m *Manager) book(cat sim.Category, d sim.Time) {
	if d < 0 {
		d = 0
	}
	if m.bd != nil {
		m.bd.Add(cat, d)
	}
}

// pageAlignedSize rounds size up to whole MMU pages.
func (m *Manager) pageAlignedSize(size int64) int64 {
	ps := m.mmu.PageSize()
	return (size + ps - 1) / ps * ps
}

// kernelSet builds the §3.3 kernel-binding set, nil for "all kernels".
func kernelSet(kernels []string) map[string]bool {
	if len(kernels) == 0 {
		return nil
	}
	ks := make(map[string]bool, len(kernels))
	for _, k := range kernels {
		ks[k] = true
	}
	return ks
}

// AllocSpec parameterises one shared-object allocation: its size, its
// declared access mode (mode.go), whether the host mapping must avoid the
// §4.2 shared-address trick (Safe), and its §3.3 kernel binding.
type AllocSpec struct {
	Size int64
	// Mode declares the object's access pattern; the zero value is
	// ModeReadWrite, the paper's default full-coherence behaviour.
	Mode AccessMode
	// Safe places the host mapping wherever the OS finds room (adsmSafeAlloc):
	// the pointer is host-only and kernel arguments need Translate.
	Safe bool
	// Kernels is the §3.3 binding: invocations of other kernels neither
	// flush nor invalidate the object. Empty means every kernel.
	Kernels []string
}

// AllocObject allocates one shared object as described by spec. It is the
// single allocation entry point; Alloc/AllocFor/SafeAlloc/SafeAllocFor are
// thin wrappers over it.
func (m *Manager) AllocObject(spec AllocSpec) (mem.Addr, error) {
	if !spec.Mode.Valid() {
		return 0, fmt.Errorf("core: unknown access mode %v", spec.Mode)
	}
	if spec.Safe {
		return m.safeAlloc(spec)
	}
	return m.alloc(spec)
}

// Alloc implements adsmAlloc: it allocates accelerator memory and mirrors
// the same address range in host memory, so a single pointer serves both
// processors. If the range is already taken on the host it returns
// ErrAddrConflict and the caller should use SafeAlloc.
func (m *Manager) Alloc(size int64) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size})
}

// AllocFor implements the §3.3 "more elaborate scheme": the object is
// assigned to the given kernels, so invocations of other kernels neither
// flush nor invalidate it — the CPU keeps working on it undisturbed.
func (m *Manager) AllocFor(size int64, kernels ...string) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size, Kernels: kernels})
}

// alloc is the identity-mapped (adsmAlloc) allocation path.
func (m *Manager) alloc(spec AllocSpec) (mem.Addr, error) {
	size, kernels := spec.Size, spec.Kernels
	if err := m.checkDeviceLost("alloc"); err != nil {
		return 0, err
	}
	m.charge(nil, sim.CatMalloc, m.cfg.MallocCost)

	t0 := m.clock.Now()
	devAddr, err := m.dev.Malloc(size)
	m.book(sim.CatCudaMalloc, m.clock.Now()-t0)
	if err != nil {
		return 0, err
	}

	if m.dev.HasVirtualMemory() {
		// With a device MMU there is never an address conflict: the host
		// picks any free virtual range and the device maps the same range
		// onto its physical allocation (§4.2's "good solution").
		mapping, err := m.va.MapAnywhere(m.pageAlignedSize(size))
		if err != nil {
			if freeErr := m.dev.Free(devAddr); freeErr != nil {
				return 0, fmt.Errorf("core: %w (and device free failed: %v)", err, freeErr)
			}
			return 0, err
		}
		if err := m.dev.MapVA(mapping.Addr, devAddr, size); err != nil {
			return 0, err
		}
		o := &Object{addr: mapping.Addr, devAddr: mapping.Addr, size: size,
			mapping: mapping, vm: true, vmPhys: devAddr,
			kernels: kernelSet(kernels), mode: spec.Mode}
		return m.finishAlloc(o)
	}

	mapping, err := m.va.MapFixed(devAddr, m.pageAlignedSize(size))
	if err != nil {
		if freeErr := m.dev.Free(devAddr); freeErr != nil {
			return 0, fmt.Errorf("core: %w (and device free failed: %v)", err, freeErr)
		}
		if errors.Is(err, mem.ErrAddrInUse) {
			return 0, fmt.Errorf("%w: %v", ErrAddrConflict, err)
		}
		return 0, err
	}
	o := &Object{addr: devAddr, devAddr: devAddr, size: size,
		mapping: mapping, kernels: kernelSet(kernels), mode: spec.Mode}
	return m.finishAlloc(o)
}

// SafeAlloc implements adsmSafeAlloc: the host mapping is placed wherever
// the OS finds room, so the returned pointer is only valid on the CPU and
// kernel arguments must be translated with Translate.
func (m *Manager) SafeAlloc(size int64) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size, Safe: true})
}

// SafeAllocFor is SafeAlloc with a §3.3 kernel binding.
func (m *Manager) SafeAllocFor(size int64, kernels ...string) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size, Safe: true, Kernels: kernels})
}

// safeAlloc is the OS-placed (adsmSafeAlloc) allocation path.
func (m *Manager) safeAlloc(spec AllocSpec) (mem.Addr, error) {
	size, kernels := spec.Size, spec.Kernels
	if err := m.checkDeviceLost("alloc"); err != nil {
		return 0, err
	}
	m.charge(nil, sim.CatMalloc, m.cfg.MallocCost)

	t0 := m.clock.Now()
	devAddr, err := m.dev.Malloc(size)
	m.book(sim.CatCudaMalloc, m.clock.Now()-t0)
	if err != nil {
		return 0, err
	}
	mapping, err := m.va.MapAnywhere(m.pageAlignedSize(size))
	if err != nil {
		if freeErr := m.dev.Free(devAddr); freeErr != nil {
			return 0, fmt.Errorf("core: %w (and device free failed: %v)", err, freeErr)
		}
		return 0, err
	}
	o := &Object{addr: mapping.Addr, devAddr: devAddr, size: size,
		mapping: mapping, safe: true, kernels: kernelSet(kernels), mode: spec.Mode}
	return m.finishAlloc(o)
}

// finishAlloc initialises o's blocks, protection and protocol state, then
// publishes it to the registry. Publication is last: a concurrent lookup
// either misses the object entirely or sees it fully initialised.
func (m *Manager) finishAlloc(o *Object) (mem.Addr, error) {
	o.seq = m.objSeq.Add(1)
	o.proto = m.cfg.Protocol
	blockSize := int64(0) // one block per object for batch/lazy
	if m.cfg.Protocol == RollingUpdate {
		blockSize = m.cfg.BlockSize
	} else if o.mode == ModeAuto && m.cfg.BlockSize > 0 {
		// Auto objects may migrate onto rolling-update, which needs block
		// structure; carve it now — block geometry is immutable.
		blockSize = m.cfg.BlockSize
	}
	o.makeBlocks(blockSize)

	m.mmu.Map(o.addr, m.pageAlignedSize(o.size), hostmmu.ProtReadWrite)
	m.protoAlloc(o)
	m.rolling.onAlloc()

	if err := m.reg.insertObject(o); err != nil {
		return 0, err
	}

	if o.mode != ModeReadWrite {
		m.moded.Add(1)
	}
	if o.proto == RollingUpdate {
		m.rollingObjs.Add(1)
	}
	m.stats.Allocs.Add(1)
	m.emit(nil, trace.Event{Kind: trace.EvAlloc, Addr: o.addr, Size: o.size})
	var flags uint8
	if o.safe {
		flags = oplog.FlagSafe
	}
	m.record(nil, oplog.Op{Kind: oplog.OpAlloc, Flags: flags, Obj: o.seq,
		Addr: o.addr, Size: o.size, Arg: int64(o.mode),
		Note: oplog.NoteID(kernelNote(o.kernels))})
	return o.addr, nil
}

// kernelNote serialises an object's §3.3 kernel binding for the op stream:
// the kernel names sorted and comma-joined ("" for an unbound object).
func kernelNote(kernels map[string]bool) string {
	if len(kernels) == 0 {
		return ""
	}
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Free implements adsmFree.
func (m *Manager) Free(addr mem.Addr) error {
	m.charge(nil, sim.CatFree, m.cfg.FreeCost)
	o := m.objectAt(addr)
	if o == nil || o.addr != addr {
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	// Mark the object dead under its lock: accesses already holding o.mu
	// finish first; later ones observe dead and fail with ErrNotShared.
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	o.dead = true
	proto := o.proto
	o.mu.Unlock()
	if o.mode != ModeReadWrite {
		m.moded.Add(-1)
	}
	if proto == RollingUpdate {
		m.rollingObjs.Add(-1)
	}

	m.rolling.forget(o)
	m.reg.removeObject(o)
	m.mmu.Unmap(o.addr, m.pageAlignedSize(o.size))
	if err := m.va.Unmap(o.addr); err != nil {
		return err
	}
	t0 := m.clock.Now()
	phys := o.devAddr
	if o.vm {
		phys = o.vmPhys
		if _, err := m.dev.UnmapVA(o.addr); err != nil {
			return err
		}
	}
	err := m.dev.Free(phys)
	m.book(sim.CatCudaFree, m.clock.Now()-t0)
	m.stats.Frees.Add(1)
	m.retire(o)
	m.emit(nil, trace.Event{Kind: trace.EvFree, Addr: o.addr, Size: o.size})
	m.record(nil, oplog.Op{Kind: oplog.OpFree, Obj: o.seq, Addr: o.addr, Size: o.size})
	return err
}

// objectAt returns the shared object containing addr, or nil: a lock-free
// binary search of the owning shard's current objects.
//
//adsm:noalloc
func (m *Manager) objectAt(addr mem.Addr) *Object {
	return m.reg.objectAt(addr)
}

// blockAt resolves the fault handler's block lookup: the block containing
// addr (nil if unshared) and the probe count charged as §5.2 search cost.
//
//adsm:noalloc
func (m *Manager) blockAt(addr mem.Addr) (*Block, int64) {
	return m.reg.blockAt(addr)
}

// IsShared reports whether addr falls inside a live shared object.
func (m *Manager) IsShared(addr mem.Addr) bool { return m.objectAt(addr) != nil }

// ObjectAt exposes the object lookup for the public API layer.
func (m *Manager) ObjectAt(addr mem.Addr) *Object { return m.objectAt(addr) }

// Translate implements adsmSafe: it maps a host pointer into the
// accelerator address of the same byte, for passing to kernels.
func (m *Manager) Translate(addr mem.Addr) (mem.Addr, error) {
	o := m.objectAt(addr)
	if o == nil {
		return 0, fmt.Errorf("%w: translate %#x", ErrNotShared, uint64(addr))
	}
	return o.devAddr + (addr - o.addr), nil
}

// objectSet is a kernel invocation's write annotation: the objects the
// kernel may modify. A nil set means "any object" — the conservative
// default when no annotation is available (§4.3).
type objectSet map[*Object]bool

// contains reports whether o may be written under this annotation.
func (s objectSet) contains(o *Object) bool {
	if s == nil {
		return true
	}
	return s[o]
}

// CallHints carries the per-call coherence declarations of one kernel
// launch: the §4.3 write-set annotation plus the per-call access-mode
// overrides (read-only and write-only hints). The zero value is an
// unhinted, unannotated call — the conservative default.
type CallHints struct {
	// Writes lists any address inside each object the kernel may write
	// (§4.3). Meaningful only when Annotated is true.
	Writes []mem.Addr
	// Annotated distinguishes an empty write set ("the kernel writes
	// nothing") from no annotation at all ("the kernel may write anything").
	Annotated bool
	// ReadOnly lists objects the kernel only reads during this call: they
	// are never invalidated by the release sweep, even without a write-set
	// annotation. It does not imply an annotation for other objects.
	ReadOnly []mem.Addr
	// WriteOnly lists objects the kernel fully overwrites during this call:
	// their dirty host data is dead (the flush is elided) and they are
	// invalidated. Implies membership in the effective write set.
	WriteOnly []mem.Addr
}

// invokeHints is a CallHints resolved against the registry for one release
// sweep. The maps are read-only once built.
type invokeHints struct {
	writes objectSet // nil = "any object" (unannotated)
	ro     objectSet // never invalidated this call
	wo     objectSet // invalidated without the write-back
}

// written reports whether o must be invalidated by the release sweep.
func (ih *invokeHints) written(o *Object) bool {
	if o.mode == ModeReadOnly || ih.ro[o] {
		return false
	}
	return ih.writes.contains(o)
}

// resolveHints validates h against the registry and the objects' declared
// access modes, and builds the release sweep's object sets.
func (m *Manager) resolveHints(h CallHints) (invokeHints, error) {
	var ih invokeHints
	if h.Annotated {
		ih.writes = make(objectSet, len(h.Writes)+len(h.WriteOnly))
		for _, addr := range h.Writes {
			o := m.objectAt(addr)
			if o == nil {
				return ih, fmt.Errorf("%w: write annotation %#x", ErrNotShared, uint64(addr))
			}
			if o.mode == ModeReadOnly {
				return ih, fmt.Errorf("%w: read-only object %#x in kernel write set",
					ErrModeViolation, uint64(o.addr))
			}
			ih.writes[o] = true
		}
	}
	if len(h.ReadOnly) > 0 {
		ih.ro = make(objectSet, len(h.ReadOnly))
		for _, addr := range h.ReadOnly {
			o := m.objectAt(addr)
			if o == nil {
				return ih, fmt.Errorf("%w: read-only hint %#x", ErrNotShared, uint64(addr))
			}
			ih.ro[o] = true
		}
	}
	if len(h.WriteOnly) > 0 {
		ih.wo = make(objectSet, len(h.WriteOnly))
		for _, addr := range h.WriteOnly {
			o := m.objectAt(addr)
			if o == nil {
				return ih, fmt.Errorf("%w: write-only hint %#x", ErrNotShared, uint64(addr))
			}
			if o.mode == ModeReadOnly {
				return ih, fmt.Errorf("%w: read-only object %#x in write-only hint",
					ErrModeViolation, uint64(o.addr))
			}
			ih.wo[o] = true
			if ih.writes != nil {
				ih.writes[o] = true
			}
		}
	}
	return ih, nil
}

// Invoke implements adsmCall: it runs the protocol's release actions
// (flushing dirty data to the accelerator, invalidating host copies) and
// dispatches the kernel. The kernel is ordered behind in-flight transfers
// by the device's stream semantics.
func (m *Manager) Invoke(kernel string, args ...uint64) error {
	return m.InvokeOn(nil, kernel, CallHints{}, args...)
}

// InvokeAnnotated is Invoke with a kernel write-set annotation (§4.3:
// "programmers can annotate each kernel call with the objects that the
// kernel will write to, then the objects can remain in read-only or dirty
// state at accelerator kernel invocation"). Objects not listed keep their
// host-valid state across the call, so reading them afterwards costs no
// transfer. writes lists any address inside each written object.
func (m *Manager) InvokeAnnotated(kernel string, writes []mem.Addr, args ...uint64) error {
	return m.InvokeOn(nil, kernel, CallHints{Writes: writes, Annotated: true}, args...)
}

// InvokeHinted is Invoke with the full per-call hint set: write-set
// annotation plus read-only/write-only access overrides.
func (m *Manager) InvokeHinted(kernel string, h CallHints, args ...uint64) error {
	return m.InvokeOn(nil, kernel, h, args...)
}

// seqAt resolves an address to its object's stable sequence number for the
// op stream (0 for unshared addresses).
func (m *Manager) seqAt(addr mem.Addr) uint32 {
	if o := m.objectAt(addr); o != nil {
		return o.seq
	}
	return 0
}

// InvokeOn is InvokeHinted issued from host lane l (nil for the shared
// timeline): the release sweep and the launch are charged to l.
func (m *Manager) InvokeOn(l *sim.Lane, kernel string, h CallHints, args ...uint64) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	return m.invokeLocked(l, kernel, h, args)
}

// Call is InvokeHinted followed by Sync under one callMu hold: the
// acquire sweep covers exactly the objects this kernel's release covered.
// Invoking and syncing separately leaves a window in which another host
// thread's Invoke retargets the sweep to its own kernel, so this call's
// objects would never be re-acquired.
func (m *Manager) Call(kernel string, h CallHints, args ...uint64) error {
	return m.CallOn(nil, kernel, h, args...)
}

// CallOn is Call issued from host lane l (nil for the shared timeline).
func (m *Manager) CallOn(l *sim.Lane, kernel string, h CallHints, args ...uint64) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	if err := m.invokeLocked(l, kernel, h, args); err != nil {
		return err
	}
	return m.syncLocked(l)
}

// invokeLocked dispatches a kernel; the caller holds callMu. The hint
// addresses are recorded in argument order — the resolved objectSet's map
// order is not reproducible.
func (m *Manager) invokeLocked(l *sim.Lane, kernel string, h CallHints, args []uint64) error {
	// Settle deferred cross-object evictions before the release sweep so the
	// rolling cache and block states are consistent at the call boundary.
	m.drainEvictions(l)
	if err := m.checkDeviceLost("invoke"); err != nil {
		return err
	}
	ih, err := m.resolveHints(h)
	if err != nil {
		return err
	}
	sp := m.beginSpan(l, "invoke", kernel)
	defer m.endSpan(l, sp)
	m.emit(l, trace.Event{Kind: trace.EvInvoke, Note: kernel})
	var invokeFlags uint8
	if h.Annotated {
		invokeFlags = oplog.FlagAnnotated
		for _, addr := range h.Writes {
			m.record(l, oplog.Op{Kind: oplog.OpAnnotate, Obj: m.seqAt(addr), Addr: addr})
		}
	}
	for _, addr := range h.ReadOnly {
		m.record(l, oplog.Op{Kind: oplog.OpAnnotate, Flags: oplog.FlagHintRead,
			Obj: m.seqAt(addr), Addr: addr})
	}
	for _, addr := range h.WriteOnly {
		m.record(l, oplog.Op{Kind: oplog.OpAnnotate, Flags: oplog.FlagHintWriteOnly,
			Obj: m.seqAt(addr), Addr: addr})
	}
	for _, a := range args {
		m.record(l, oplog.Op{Kind: oplog.OpArg, Arg: int64(a)})
	}
	m.record(l, oplog.Op{Kind: oplog.OpInvoke, Flags: invokeFlags, Note: oplog.NoteID(kernel)})
	m.invokeKernel = kernel
	if err := m.releaseAll(l, &ih); err != nil {
		return err
	}
	// Record how much flushed data is still in flight: the kernel cannot
	// start until the H2D queue drains, so this backlog is transfer time
	// attributable to the host-to-device direction (Figure 11).
	if drain := m.dev.H2DFreeAt() - m.clock.NowOn(l); drain > 0 {
		m.stats.H2DDrain.Add(int64(drain))
	}
	m.charge(l, sim.CatLaunch, m.cfg.LaunchCost)
	err = m.retry(l, sim.CatLaunch, "launch "+kernel, func() error {
		t0 := m.clock.NowOn(l)
		_, lerr := m.dev.LaunchOn(l, kernel, args...)
		m.book(sim.CatCudaLaunch, m.clock.NowOn(l)-t0)
		return lerr
	})
	if err != nil && errors.Is(err, fault.ErrInjected) {
		// Retries exhausted or the launch fault was permanent: the device
		// is gone. Objects degrade lazily at the next entry point.
		err = m.escalateDevice(l, "launch "+kernel, err)
	}
	m.stats.Invokes.Add(1)
	return err
}

// Sync implements adsmSync: it stalls until the accelerator finishes, then
// runs the protocol's acquire actions.
func (m *Manager) Sync() error { return m.SyncOn(nil) }

// SyncOn is Sync stalling host lane l (nil for the shared timeline).
func (m *Manager) SyncOn(l *sim.Lane) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	return m.syncLocked(l)
}

// syncLocked is Sync; the caller holds callMu.
func (m *Manager) syncLocked(l *sim.Lane) error {
	if err := m.checkDeviceLost("sync"); err != nil {
		return err
	}
	sp := m.beginSpan(l, "sync", "")
	defer m.endSpan(l, sp)
	m.record(l, oplog.Op{Kind: oplog.OpSync})
	stall := m.dev.SynchronizeOn(l)
	m.book(sim.CatGPU, stall)
	m.stats.Syncs.Add(1)
	m.emit(l, trace.Event{Kind: trace.EvSync})
	return m.acquireAll(l)
}

// HandleFault resolves a protection fault against this manager's objects.
// Multi-accelerator front ends install a dispatcher as the MMU handler and
// route each fault to the owning manager through this method.
func (m *Manager) HandleFault(f hostmmu.Fault) error { return m.handleFault(f) }

// handleFault is installed as the MMU fault handler: it locates the block
// (charging the search cost the paper analyses in §5.2) and lets the
// protocol resolve the Figure 6 transition. The fault's service is charged
// to the faulting access's lane, f.Lane.
//
// Faults arrive synchronously from host-access paths that already hold the
// faulted object's mu, so block-state transitions here are serialised per
// object while faults on different objects run in parallel.
//
//adsm:noalloc
func (m *Manager) handleFault(f hostmmu.Fault) error {
	l := f.Lane
	sp := m.beginSpan(l, "fault", f.Access.String())
	t0 := m.clock.NowOn(l)
	defer func() {
		m.mets.faultNs.Observe(int64(m.clock.NowOn(l) - t0))
		m.endSpan(l, sp)
	}()
	b, visits := m.blockAt(f.Addr)
	m.mets.searchDepth.Observe(visits)
	search := sim.Time(visits) * m.cfg.TreeNodeCost
	m.stats.Faults.Add(1)
	if f.Access == hostmmu.AccessWrite {
		m.stats.WriteFaults.Add(1)
	} else {
		m.stats.ReadFaults.Add(1)
	}
	m.stats.SearchTime.Add(int64(search))
	m.charge(l, sim.CatSignal, search)
	if b == nil {
		return errUnsharedFault(f.Addr)
	}
	b.obj.counters.faults.Add(1)
	if f.Access == hostmmu.AccessWrite {
		b.obj.counters.writeFaults.Add(1)
	} else {
		b.obj.counters.readFaults.Add(1)
	}
	if m.tracer != nil {
		m.emit(l, trace.Event{Kind: trace.EvFault, Addr: b.addr, Size: b.size,
			Note: faultNote(f.Access, b.state)})
	}
	var faultFlags uint8
	if f.Access == hostmmu.AccessWrite {
		faultFlags = oplog.FlagWrite
	}
	m.record(l, oplog.Op{Kind: oplog.OpFault, Flags: faultFlags, Obj: b.obj.seq,
		Addr: b.addr, Size: b.size, Arg: int64(b.state)})
	if err := m.checkModeFault(b, f.Access); err != nil {
		return err
	}
	return m.protoFault(l, b, f.Access)
}

// errUnsharedFault formats the unshared-address error off the fault hot
// path (handleFault is //adsm:noalloc; this can only fire on a stray
// access, never on the measured path).
//
//adsm:cold
func errUnsharedFault(addr mem.Addr) error {
	return fmt.Errorf("%w: fault at %#x", ErrNotShared, uint64(addr))
}

// faultNotes are the precomputed trace annotations for fault events, so the
// traced path concatenates no strings (and the untraced path never reaches
// here at all).
var faultNotes = [2][3]string{
	{"read in Invalid", "read in ReadOnly", "read in Dirty"},
	{"write in Invalid", "write in ReadOnly", "write in Dirty"},
}

// faultNote resolves the note for a fault event: precomputed strings for
// the in-range states, concatenation (cold, by design) for out-of-range
// ones that only a corrupted state machine could produce.
//
//adsm:cold
func faultNote(access hostmmu.Access, s State) string {
	a := 0
	if access == hostmmu.AccessWrite {
		a = 1
	}
	if int(s) < len(faultNotes[a]) {
		return faultNotes[a][s]
	}
	return access.String() + " in " + s.String()
}

// HostRead performs a CPU read of [addr, addr+len(dst)) through the MMU,
// faulting and fetching as the protocol dictates, then copies the bytes.
func (m *Manager) HostRead(addr mem.Addr, dst []byte) error { return m.HostReadOn(nil, addr, dst) }

// HostReadOn is HostRead made by host lane l (nil for the shared
// timeline): the faults it takes are serviced on l.
func (m *Manager) HostReadOn(l *sim.Lane, addr mem.Addr, dst []byte) error {
	o, err := m.boundsCheck(addr, int64(len(dst)))
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
	}
	m.record(l, oplog.Op{Kind: oplog.OpHostRead, Obj: o.seq, Addr: addr, Size: int64(len(dst))})
	if err := m.mmu.Check(l, addr, int64(len(dst)), hostmmu.AccessRead); err != nil {
		o.mu.Unlock()
		return err
	}
	o.mapping.Space.Read(addr, dst)
	o.mu.Unlock()
	m.drainEvictions(l)
	return nil
}

// HostWrite performs a CPU write of src to [addr, addr+len(src)) through
// the MMU. Like real store instructions, it proceeds block by block:
// each block's write fault is resolved (which may evict an earlier, already
// written block) before that block's bytes land, never after. Resolving all
// faults up front would let a rolling-cache eviction flush a block the CPU
// has not written yet and then miss the write entirely.
func (m *Manager) HostWrite(addr mem.Addr, src []byte) error { return m.HostWriteOn(nil, addr, src) }

// HostWriteOn is HostWrite made by host lane l (nil for the shared
// timeline): the faults it takes are serviced on l.
func (m *Manager) HostWriteOn(l *sim.Lane, addr mem.Addr, src []byte) error {
	o, err := m.boundsCheck(addr, int64(len(src)))
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
	}
	m.record(l, oplog.Op{Kind: oplog.OpHostWrite, Obj: o.seq, Addr: addr, Size: int64(len(src))})
	err = m.hostWriteLocked(l, o, addr, src)
	o.mu.Unlock()
	m.drainEvictions(l)
	return err
}

// hostWriteLocked is HostWrite's block-by-block walk; the caller holds o.mu.
func (m *Manager) hostWriteLocked(l *sim.Lane, o *Object, addr mem.Addr, src []byte) error {
	for len(src) > 0 {
		n := int64(len(src))
		if b := o.BlockAt(addr); b != nil {
			if rem := int64(b.addr) + b.size - int64(addr); rem < n {
				n = rem
			}
		}
		if err := m.mmu.Check(l, addr, n, hostmmu.AccessWrite); err != nil {
			return err
		}
		o.mapping.Space.Write(addr, src[:n])
		addr += mem.Addr(n)
		src = src[n:]
	}
	return nil
}

// HostBytes returns the live host backing slice for [addr, addr+n) after
// performing the MMU access check for the given access kind. The public
// API's typed views use it for bulk element reads. For writes it is only
// safe within a single coherence block: resolving a multi-block write walk
// up front can evict an earlier block before the caller writes it — use
// HostWrite for multi-block stores. The returned slice is live memory: the
// caller must not use it concurrently with other accessors of the object.
func (m *Manager) HostBytes(addr mem.Addr, n int64, access hostmmu.Access) ([]byte, error) {
	o, err := m.boundsCheck(addr, n)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
	}
	var accFlags uint8
	if access == hostmmu.AccessWrite {
		accFlags = oplog.FlagWrite
	}
	m.record(nil, oplog.Op{Kind: oplog.OpHostAccess, Flags: accFlags, Obj: o.seq, Addr: addr, Size: n})
	if err := m.mmu.Check(nil, addr, n, access); err != nil {
		o.mu.Unlock()
		return nil, err
	}
	bytes := o.mapping.Space.Bytes(addr, n)
	o.mu.Unlock()
	m.drainEvictions(nil)
	return bytes, nil
}

func (m *Manager) boundsCheck(addr mem.Addr, n int64) (*Object, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative access size %d", n)
	}
	o := m.objectAt(addr)
	if o == nil {
		return nil, fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
	}
	if addr+mem.Addr(n) > o.addr+mem.Addr(o.size) {
		return nil, fmt.Errorf("%w: [%#x,+%d) beyond object end %#x",
			ErrSpansObjects, uint64(addr), n, uint64(o.addr+mem.Addr(o.size)))
	}
	return o, nil
}

// --- transfer helpers used by the protocols ---

// runSize returns the byte length of the run of n consecutive blocks
// starting at first (contiguous by construction: consecutive indices of one
// object are adjacent in both host and device address space).
func runSize(first *Block, n int) int64 {
	last := first.obj.blocks[first.index+n-1]
	return int64(last.addr-first.addr) + last.size
}

// waitH2DSlot stalls until the eager-eviction path may issue its next H2D
// transfer, booking the wait (the eager-transfer overlap cost plotted in
// Figure 11). With the double buffer disabled this is §5.2's "evictions
// must wait for the previous transfer to finish before continuing": the
// engine must be fully idle. With it enabled (the default) one transfer
// may still be in flight — the wait target is the completion of the
// transfer before last — so eviction DMA overlaps the fault service that
// triggered it instead of serialising behind it.
func (m *Manager) waitH2DSlot(l *sim.Lane) {
	var target sim.Time
	if m.cfg.DisableEvictionOverlap {
		target = m.dev.H2DFreeAt()
	} else {
		m.flushMu.Lock()
		target = m.prevFlush
		m.flushMu.Unlock()
	}
	wait := target - m.clock.NowOn(l)
	if wait <= 0 {
		return
	}
	m.clock.AdvanceOn(l, wait)
	m.stats.H2DWait.Add(int64(wait))
	m.book(sim.CatCopy, wait)
}

// noteFlushIssued records the completion time of an eager flush just
// handed to the H2D engine, shifting the double buffer.
func (m *Manager) noteFlushIssued(done sim.Time) {
	m.flushMu.Lock()
	if done >= m.lastFlush {
		m.prevFlush, m.lastFlush = m.lastFlush, done
	} else if done > m.prevFlush {
		m.prevFlush = done
	}
	m.flushMu.Unlock()
}

// flushBlockEager transfers a dirty block to the accelerator without
// blocking on the transfer itself, but waiting first for the DMA engine to
// be free. Injected faults are retried (inline, no closure — this runs on
// the fault path); an unrecoverable failure escalates (device lost, b's
// object degraded) and is returned. The caller holds b.obj.mu.
func (m *Manager) flushBlockEager(l *sim.Lane, b *Block) error {
	return m.flushRunEager(l, b, 1)
}

// flushRunEager is flushBlockEager over n consecutive dirty blocks with a
// single DMA transfer: one engine wait, one recorded transfer of the run's
// total bytes. Coalesced rolling evictions come through here. The caller
// holds first.obj.mu.
//
//adsm:noalloc
func (m *Manager) flushRunEager(l *sim.Lane, first *Block, n int) error {
	sp := m.beginSpan(l, "flush", "eager")
	defer m.endSpan(l, sp)
	o := first.obj
	size := runSize(first, n)
	for attempt := 0; ; attempt++ {
		m.waitH2DSlot(l)
		done, terr := m.dev.TryMemcpyH2DAsync(l, first.devAddr(), o.mapping.Space.Bytes(first.addr, size))
		if terr == nil {
			m.noteFlushIssued(done.At)
			break
		}
		again, ferr := m.retryStep(l, sim.CatCopy, "flush", attempt, terr)
		if !again {
			return m.escalateLocked(l, o, "flush", ferr)
		}
	}
	m.recordH2D(o, size)
	if m.tracer != nil {
		m.emit(l, trace.Event{Kind: trace.EvFlush, Addr: first.addr, Size: size, Note: "eager"})
	}
	m.record(l, oplog.Op{Kind: oplog.OpFlush, Obj: o.seq, Addr: first.addr, Size: size})
	return nil
}

// flushBlockSync transfers a dirty block to the accelerator and stalls the
// CPU until it completes (batch-update's conservative behaviour). Faults
// are retried and escalate like flushBlockEager. The caller holds
// b.obj.mu.
func (m *Manager) flushBlockSync(l *sim.Lane, b *Block) error {
	sp := m.beginSpan(l, "flush", "sync")
	defer m.endSpan(l, sp)
	for attempt := 0; ; attempt++ {
		t0 := m.clock.NowOn(l)
		_, terr := m.dev.TryMemcpyH2D(l, b.devAddr(), b.hostBytes())
		d := m.clock.NowOn(l) - t0
		m.stats.H2DWait.Add(int64(d))
		m.book(sim.CatCopy, d)
		if terr == nil {
			break
		}
		again, ferr := m.retryStep(l, sim.CatCopy, "flush", attempt, terr)
		if !again {
			return m.escalateLocked(l, b.obj, "flush", ferr)
		}
	}
	m.recordH2D(b.obj, b.size)
	if m.tracer != nil {
		m.emit(l, trace.Event{Kind: trace.EvFlush, Addr: b.addr, Size: b.size, Note: "sync"})
	}
	m.record(l, oplog.Op{Kind: oplog.OpFlush, Flags: oplog.FlagSync,
		Obj: b.obj.seq, Addr: b.addr, Size: b.size})
	return nil
}

// fetchBlockSync transfers a block from the accelerator to host memory,
// stalling the CPU (the faulting access needs the data now). Faults are
// retried — a corrupt attempt scribbles the host block, so the retry's
// full-block copy must overwrite it — and escalate like flushBlockEager.
// The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) fetchBlockSync(l *sim.Lane, b *Block) error {
	sp := m.beginSpan(l, "fetch", "")
	defer m.endSpan(l, sp)
	for attempt := 0; ; attempt++ {
		t0 := m.clock.NowOn(l)
		_, terr := m.dev.TryMemcpyD2H(l, b.hostBytes(), b.devAddr())
		d := m.clock.NowOn(l) - t0
		m.stats.D2HWait.Add(int64(d))
		m.book(sim.CatCopy, d)
		if terr == nil {
			break
		}
		again, ferr := m.retryStep(l, sim.CatCopy, "fetch", attempt, terr)
		if !again {
			return m.escalateLocked(l, b.obj, "fetch", ferr)
		}
	}
	m.recordD2H(b.obj, b.size)
	if m.tracer != nil {
		m.emit(l, trace.Event{Kind: trace.EvFetch, Addr: b.addr, Size: b.size})
	}
	m.record(l, oplog.Op{Kind: oplog.OpFetch, Obj: b.obj.seq, Addr: b.addr, Size: b.size})
	return nil
}

// fetchRunSync is fetchBlockSync over n consecutive Invalid blocks with a
// single DMA transfer: the span-fault service that mirrors eviction
// coalescing on the fetch side. One stall, one recorded transfer of the
// run's total bytes, one OpFetch carrying the block count in Arg. Retries
// re-copy the whole run (a corrupt attempt scribbles the host span) and
// escalate like fetchBlockSync. The caller holds first.obj.mu and has
// verified every block of the run is StateInvalid.
//
//adsm:noalloc
func (m *Manager) fetchRunSync(l *sim.Lane, first *Block, n int) error {
	sp := m.beginSpan(l, "fetch", "run")
	defer m.endSpan(l, sp)
	o := first.obj
	size := runSize(first, n)
	for attempt := 0; ; attempt++ {
		t0 := m.clock.NowOn(l)
		_, terr := m.dev.TryMemcpyD2H(l, o.mapping.Space.Bytes(first.addr, size), first.devAddr())
		d := m.clock.NowOn(l) - t0
		m.stats.D2HWait.Add(int64(d))
		m.book(sim.CatCopy, d)
		if terr == nil {
			break
		}
		again, ferr := m.retryStep(l, sim.CatCopy, "fetch", attempt, terr)
		if !again {
			return m.escalateLocked(l, o, "fetch", ferr)
		}
	}
	m.recordD2H(o, size)
	m.stats.FaultBatches.Add(1)
	m.stats.PrefetchedBlocks.Add(int64(n - 1))
	if m.tracer != nil {
		m.emit(l, trace.Event{Kind: trace.EvFetch, Addr: first.addr, Size: size, Note: "run"})
	}
	m.record(l, oplog.Op{Kind: oplog.OpFetch, Obj: o.seq, Addr: first.addr, Size: size, Arg: int64(n)})
	return nil
}

// recordH2D books one host-to-device transfer of n bytes against the
// manager totals, the metrics registry, and the owning object.
func (m *Manager) recordH2D(o *Object, n int64) {
	m.stats.BytesH2D.Add(n)
	m.stats.TransfersH2D.Add(1)
	if o != nil {
		o.counters.bytesH2D.Add(n)
		o.counters.transfersH2D.Add(1)
	}
}

// recordD2H books one device-to-host transfer of n bytes.
func (m *Manager) recordD2H(o *Object, n int64) {
	m.stats.BytesD2H.Add(n)
	m.stats.TransfersD2H.Add(1)
	if o != nil {
		o.counters.bytesD2H.Add(n)
		o.counters.transfersD2H.Add(1)
	}
}

// --- cross-object eviction machinery ---

// evictRun is a batch of consecutive rolling-cache victims: n blocks of one
// object starting at first, contiguous in host and device address space.
// Representing runs as (first, n) keeps the eviction path allocation-free —
// the member blocks are first.obj.blocks[first.index : first.index+n].
type evictRun struct {
	first *Block
	n     int
}

// noteEviction books a run of rolling-cache evictions (n blocks, one DMA)
// against the victims' object and the manager totals. Evictions count
// blocks, not transfers, so the counter stays comparable whether or not
// coalescing is enabled.
func (m *Manager) noteEviction(l *sim.Lane, first *Block, n int) {
	m.stats.Evictions.Add(int64(n))
	first.obj.counters.evictions.Add(int64(n))
	m.record(l, oplog.Op{Kind: oplog.OpEvict, Obj: first.obj.seq,
		Addr: first.addr, Size: runSize(first, n), Arg: int64(n)})
	if m.tracer != nil {
		for i := 0; i < n; i++ {
			b := first.obj.blocks[first.index+i]
			m.emit(l, trace.Event{Kind: trace.EvEvict, Addr: b.addr, Size: b.size})
		}
	}
}

// flushEvicted writes a run of evicted rolling-cache victims back to the
// accelerator and downgrades them to ReadOnly, one DMA transfer and one
// mprotect per maximal still-dirty stretch. Blocks no longer Dirty (a
// racing drain flushed them) or re-queued since eviction (checkQueued; the
// cache owns them again) split the run and are skipped. On an unrecoverable
// fault the flush has already escalated (victims' object degraded, blocks
// left Dirty and writable) and the error is returned. The caller must hold
// first.obj.mu.
func (m *Manager) flushEvicted(l *sim.Lane, first *Block, n int, checkQueued bool) error {
	o := first.obj
	end := first.index + n
	for i := first.index; i < end; {
		for i < end && !m.flushable(o.blocks[i], checkQueued) {
			i++
		}
		j := i
		for j < end && m.flushable(o.blocks[j], checkQueued) {
			j++
		}
		if j == i {
			break
		}
		sub := o.blocks[i]
		if err := m.flushRunEager(l, sub, j-i); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			o.blocks[k].state = StateReadOnly
		}
		m.setProtRun(l, sub, j-i, hostmmu.ProtRead)
		i = j
	}
	return nil
}

// flushable reports whether an evicted block still needs its write-back.
func (m *Manager) flushable(b *Block, checkQueued bool) bool {
	return b.state == StateDirty && !(checkQueued && m.rolling.isQueued(b))
}

// deferEviction queues a victim run whose object lock the current goroutine
// does not hold. The entry points drain the queue once their own object
// lock is released, so no goroutine ever holds two Object.mu at once.
//
//adsm:noalloc
func (m *Manager) deferEviction(first *Block, n int) {
	m.evictMu.Lock()
	m.evictQ = append(m.evictQ, evictRun{first, n}) //adsm:allow noalloc: cross-object victims are rare, and the drainer takes the queue wholesale (evictQ = nil), so the occasional regrow buys lock-free iteration
	m.evictMu.Unlock()
}

// drainEvictions flushes every deferred cross-object victim run. Called by
// host entry points after releasing their object lock, and by invoke before
// the release sweep. A victim that was re-dirtied and re-queued since
// deferral is left alone (the cache owns it again); one flushed by a racing
// drain is skipped via the state check. Both cases are handled per block
// inside flushEvicted, splitting the run as needed.
func (m *Manager) drainEvictions(l *sim.Lane) {
	if m.lost.Load() {
		// The device is gone: deferred flushes are moot, and any object not
		// yet degraded switches to host-resident mode here, the sweep every
		// entry point passes through.
		m.degradeAll(l)
	}
	m.evictMu.Lock()
	runs := m.evictQ
	m.evictQ = nil
	m.evictMu.Unlock()
	for _, r := range runs {
		o := r.first.obj
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			// An unrecoverable flush has already escalated (the object is
			// degraded and keeps its data host-side); nothing further to do.
			_ = m.flushEvicted(l, r.first, r.n, true)
		}
		o.mu.Unlock()
	}
}

// setProt changes a block's protection, charging the mprotect cost.
//
//adsm:noalloc
func (m *Manager) setProt(l *sim.Lane, b *Block, prot hostmmu.Prot) {
	m.charge(l, sim.CatSignal, m.cfg.MprotectCost)
	if err := m.mmu.Mprotect(b.addr, b.size, prot); err != nil {
		// Blocks are always mapped while their object lives; failure here
		// is a manager bug, not a recoverable condition.
		mprotectFailed("block", err)
	}
}

// setProtRun changes the protection of n consecutive blocks with a single
// mprotect call (one charge for the whole run).
//
//adsm:noalloc
func (m *Manager) setProtRun(l *sim.Lane, first *Block, n int, prot hostmmu.Prot) {
	if n == 1 {
		m.setProt(l, first, prot)
		return
	}
	m.charge(l, sim.CatSignal, m.cfg.MprotectCost)
	if err := m.mmu.Mprotect(first.addr, runSize(first, n), prot); err != nil {
		mprotectFailed("block run", err)
	}
}

// mprotectFailed raises the mprotect-failure panic; the formatting lives
// off the //adsm:noalloc protection-change path.
//
//adsm:cold
func mprotectFailed(what string, err error) {
	panic(fmt.Sprintf("core: mprotect of live %s failed: %v", what, err))
}

// eachObject visits live objects in address order. The registry is
// snapshotted shard by shard so callbacks run holding no shard lock.
func (m *Manager) eachObject(f func(o *Object)) {
	for _, o := range m.reg.snapshot() {
		f(o)
	}
}

// eachInvokeObject visits the objects affected by the in-flight kernel
// invocation: those bound to the kernel, or unbound (used by all kernels).
// Each callback runs under the object's lock; objects freed since the
// snapshot are skipped.
func (m *Manager) eachInvokeObject(f func(o *Object)) {
	kernel := m.invokeKernel
	m.eachObject(func(o *Object) {
		o.mu.Lock()
		if !o.dead && o.UsedBy(kernel) {
			f(o)
		}
		o.mu.Unlock()
	})
}
