// Package benchgate is the benchmark-regression harness: it defines the
// hot-path microbenchmarks of the ADSM runtime, runs them (plus the
// figure-level evaluation sweep) into a machine-readable summary, and
// compares summaries against a committed baseline with configurable
// tolerances. cmd/gmacbench exposes it as -baseline / -check; CI runs
// -check against the committed BENCH_PR9.json so fault-throughput or
// allocation regressions fail loudly.
package benchgate

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The microbenchmark testbed mirrors the paper's machine at unit-test
// scale: 4 KiB pages, a G280-class accelerator behind PCIe 2.0 x16.
const (
	benchPage    = 4096
	benchDevBase = mem.Addr(0x2_0000_0000)
)

// microRig is a complete simulated machine for the microbenchmarks, built
// from the exported constructors only (the same path experiment harnesses
// use).
type microRig struct {
	clock *sim.Clock
	bd    *sim.Breakdown
	mmu   *hostmmu.MMU
	va    *mem.VASpace
	dev   *accel.Device
	mgr   *core.Manager
}

func newMicroRig(tb testing.TB, cfg core.Config) *microRig {
	tb.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: benchPage, SignalCost: 1500 * sim.Nanosecond}, clock, bd)
	va := mem.NewVASpace(0x1000_0000, 0x40_0000_0000)
	dev := accel.New(accel.Config{
		Name:    "benchgate-gpu",
		MemBase: benchDevBase,
		MemSize: 768 << 20,
		GFLOPS:  933,
		MemLink: interconnect.G280Memory(),
		H2D:     interconnect.PCIe2x16H2D(),
		D2H:     interconnect.PCIe2x16D2H(),
	}, clock)
	mgr, err := core.NewManager(cfg, clock, bd, mmu, va, dev)
	if err != nil {
		tb.Fatal(err)
	}
	dev.Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
	return &microRig{clock: clock, bd: bd, mmu: mmu, va: va, dev: dev, mgr: mgr}
}

func microCfg() core.Config {
	return core.Config{
		Protocol:     core.RollingUpdate,
		BlockSize:    4 << 10,
		RollingDelta: 2,
		MallocCost:   2 * sim.Microsecond,
		FreeCost:     1 * sim.Microsecond,
		LaunchCost:   2 * sim.Microsecond,
		TreeNodeCost: 50 * sim.Nanosecond,
		MprotectCost: 1 * sim.Microsecond,
	}
}

// faultObjectBlocks is the block population the fault benchmarks cycle
// through between state resets (64 MiB of 4 KiB blocks).
const faultObjectBlocks = 16 << 10

// BenchFaultRead measures one read fault end to end: signal delivery,
// block lookup, Invalid→ReadOnly transition with a synchronous fetch, and
// mprotect. Every iteration faults on a fresh Invalid block; the periodic
// state reset (re-invalidating the object through a kernel call) runs off
// the timer. Span batching is pinned off — this gate entry isolates the
// single-block fault path, and stays comparable across baselines;
// BenchStreamingFaults measures the batched path.
func BenchFaultRead(b *testing.B) {
	cfg := microCfg()
	cfg.FixedRolling = faultObjectBlocks // never evict: isolate the fault itself
	cfg.DisableFaultBatching = true
	r := newMicroRig(b, cfg)
	ptr, err := r.mgr.Alloc(faultObjectBlocks * benchPage)
	if err != nil {
		b.Fatal(err)
	}
	invalidate := func() {
		// A kernel annotated as writing the object invalidates every block.
		if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{ptr}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	invalidate()
	dst := make([]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%faultObjectBlocks) * benchPage
		if err := r.mgr.HostRead(ptr+mem.Addr(off), dst); err != nil {
			b.Fatal(err)
		}
		if i%faultObjectBlocks == faultObjectBlocks-1 {
			b.StopTimer()
			invalidate()
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportVirtual(b, r)
}

// BenchFaultWrite measures one write fault end to end: signal delivery,
// block lookup, ReadOnly→Dirty transition, mprotect, and the rolling-cache
// push (sized so nothing evicts; see BenchRollingEvict for the eviction
// path). The periodic reset flushes the dirty blocks back to ReadOnly
// through a kernel call with an empty write set, off the timer.
func BenchFaultWrite(b *testing.B) {
	cfg := microCfg()
	cfg.FixedRolling = faultObjectBlocks + 1 // hold every block: no evictions
	r := newMicroRig(b, cfg)
	ptr, err := r.mgr.Alloc(faultObjectBlocks * benchPage)
	if err != nil {
		b.Fatal(err)
	}
	reset := func() {
		// An empty (non-nil) write set flushes Dirty blocks to ReadOnly
		// without invalidating anything.
		if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	src := []byte{0xA5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%faultObjectBlocks) * benchPage
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), src); err != nil {
			b.Fatal(err)
		}
		if i%faultObjectBlocks == faultObjectBlocks-1 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportVirtual(b, r)
}

// BenchStreamingFaults is BenchFaultRead with span batching on: the same
// sequential sweep over Invalid blocks, but the adaptive streak detector
// rides the promotion ladder to 16-block fetches, so the steady state
// services one fault — and one DMA — per 16 blocks. The d2h-transfers/op
// and fault-batches/op metrics gate the batching win; faults/op gates the
// signal-delivery reduction.
func BenchStreamingFaults(b *testing.B) {
	cfg := microCfg()
	cfg.FixedRolling = faultObjectBlocks // never evict: isolate fault service
	r := newMicroRig(b, cfg)
	ptr, err := r.mgr.Alloc(faultObjectBlocks * benchPage)
	if err != nil {
		b.Fatal(err)
	}
	invalidate := func() {
		if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{ptr}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	invalidate()
	dst := make([]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	// One op = one block consumed by the streaming reader, whether its
	// fetch came from its own fault or a neighbour's span batch.
	for i := 0; i < b.N; i++ {
		off := int64(i%faultObjectBlocks) * benchPage
		if err := r.mgr.HostRead(ptr+mem.Addr(off), dst); err != nil {
			b.Fatal(err)
		}
		if i%faultObjectBlocks == faultObjectBlocks-1 {
			b.StopTimer()
			invalidate()
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportVirtual(b, r)
}

// ContendedLanes are the lane counts BenchContendedFaults sweeps.
var ContendedLanes = []int{1, 2, 4, 8}

// contLaneBlocks is the per-lane object population of the contended sweep:
// 256 blocks of 4 KiB = 1 MiB, exactly one registry granule, so adjacent
// lanes' objects hash to different registry and page-table shards.
const contLaneBlocks = 256

// BenchContendedFaults measures fault service under lane contention: N
// goroutines, each in its own virtual-time lane, take write faults on their
// own 1 MiB object concurrently. Before the sharded registry and page
// table, every lane's block lookup and mprotect met on process-wide locks;
// now disjoint objects touch disjoint shards and the storms proceed in
// parallel. The wall-clock ns/op is the contention gate; virt-ns/op checks
// the lanes overlap in virtual time.
func BenchContendedFaults(b *testing.B, lanes int) {
	cfg := microCfg()
	cfg.FixedRolling = lanes*contLaneBlocks + 1 // hold every block: no evictions
	r := newMicroRig(b, cfg)
	ptrs := make([]mem.Addr, lanes)
	for i := range ptrs {
		p, err := r.mgr.Alloc(contLaneBlocks * benchPage)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	// The off-timer resets flush every Dirty block H2D; those transfers are
	// bookkeeping, not the measured fault path, and their count varies with
	// how b.N splits into rounds — so they are excluded from the reported
	// per-op metrics, which the gate checks at deterministic tolerances.
	var excluded core.Stats
	var excludedVirt sim.Time
	reset := func() {
		before := r.mgr.Stats()
		vbefore := r.clock.Now()
		// Empty (non-nil) write set: flush every Dirty block back to
		// ReadOnly so the next round's writes fault again.
		if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
		excluded = excluded.Add(r.mgr.Stats().Sub(before))
		excludedVirt += r.clock.Now() - vbefore
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		quota := contLaneBlocks
		if rem := b.N - done; rem < lanes*quota {
			quota = (rem + lanes - 1) / lanes
		}
		errs := make([]error, lanes)
		r.clock.InLanes(r.clock.Now(), lanes, func(i int, l *sim.Lane) {
			src := []byte{byte(i)}
			for j := 0; j < quota; j++ {
				off := int64(j%contLaneBlocks) * benchPage
				if err := r.mgr.HostWriteOn(l, ptrs[i]+mem.Addr(off), src); err != nil {
					errs[i] = err
					return
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		done += lanes * quota
		b.StopTimer()
		reset()
		b.StartTimer()
	}
	b.StopTimer()
	reportVirtualExcluding(b, r, excluded, excludedVirt)
}

// ContendedName formats one lane-sweep point's sub-benchmark name.
func ContendedName(lanes int) string {
	if lanes == 1 {
		return "1lane"
	}
	return fmt.Sprintf("%dlanes", lanes)
}

// BenchRollingEvict measures the rolling-update eviction path: every write
// fault pushes a block into a small pinned rolling cache and evicts the
// oldest, which is flushed eagerly to the accelerator. The access pattern
// walks blocks round-robin, so evicted blocks return to ReadOnly and fault
// again on the next lap — a steady eviction stream with no resets.
func BenchRollingEvict(b *testing.B) {
	cfg := microCfg()
	cfg.FixedRolling = 32
	r := newMicroRig(b, cfg)
	const blocks = 1 << 10
	ptr, err := r.mgr.Alloc(blocks * benchPage)
	if err != nil {
		b.Fatal(err)
	}
	src := []byte{0x5A}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%blocks) * benchPage
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportVirtual(b, r)
}

// BenchReadOnlyFault measures host reads of a sealed ModeReadOnly object.
// After the first kernel release replicates the object, every block sits
// permanently behind read protection: a host read is a plain memory access
// — no signal, no transition, no DMA. The gate pins the per-op fault and
// transfer counters at zero (the ISSUE's "zero fault traffic after first
// touch" invariant) and the per-op virtual time at ~0 ns.
func BenchReadOnlyFault(b *testing.B) {
	r := newMicroRig(b, microCfg())
	const blocks = 1 << 10
	ptr, err := r.mgr.AllocObject(core.AllocSpec{Size: blocks * benchPage, Mode: core.ModeReadOnly})
	if err != nil {
		b.Fatal(err)
	}
	// Populate the table (one write per block), then seal it with the first
	// kernel release.
	src := []byte{0xC3}
	for i := 0; i < blocks; i++ {
		if err := r.mgr.HostWrite(ptr+mem.Addr(int64(i)*benchPage), src); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.mgr.InvokeHinted("nop", core.CallHints{}); err != nil {
		b.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		b.Fatal(err)
	}
	sealed := r.mgr.Stats()
	t0 := r.clock.Now()
	dst := make([]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%blocks) * benchPage
		if err := r.mgr.HostRead(ptr+mem.Addr(off), dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Report the post-seal deltas, not the lifetime counters: the population
	// and seal phase took faults and transfers by design, the steady state
	// must take none.
	st := r.mgr.Stats().Sub(sealed)
	n := float64(b.N)
	b.ReportMetric(float64(r.clock.Now()-t0)/n, "virt-ns/op")
	b.ReportMetric(float64(st.Faults)/n, "faults/op")
	b.ReportMetric(float64(st.BytesD2H)/n, "d2hB/op")
}

// BenchModeMigrate measures the auto-mode machinery under protocol churn:
// a ModeAuto object alternates between streaming-write phases (which vote
// the object toward rolling-update) and sparse-read phases (which vote it
// toward lazy-update), so the per-object counters cross the hysteresis
// threshold repeatedly and the runtime keeps migrating the object's
// protocol online. The per-op cost of the migration path — counter
// bookkeeping at every release/acquire plus the occasional protocol swap —
// is what the gate tracks, alongside a migrations/op rate pinning that
// migrations actually happen.
func BenchModeMigrate(b *testing.B) {
	r := newMicroRig(b, microCfg())
	const blocks = 64
	ptr, err := r.mgr.AllocObject(core.AllocSpec{Size: blocks * benchPage, Mode: core.ModeAuto})
	if err != nil {
		b.Fatal(err)
	}
	src := []byte{0x3C}
	dst := make([]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if (i/16)%2 == 0 {
			// Streaming phase: dirty every block before the launch.
			for j := 0; j < blocks; j++ {
				if err := r.mgr.HostWrite(ptr+mem.Addr(int64(j)*benchPage), src); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			// Sparse-read phase: touch a single block.
			if err := r.mgr.HostRead(ptr+mem.Addr(int64(i%blocks)*benchPage), dst); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.mgr.InvokeHinted("nop", core.CallHints{Writes: []mem.Addr{ptr}, Annotated: true}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := r.mgr.Stats()
	b.ReportMetric(float64(st.ModeMigrations)/float64(b.N), "migrations/op")
	reportVirtual(b, r)
}

// BlockLookupSizes are the registry populations BenchBlockLookup sweeps:
// the §5.2 O(log2 n) search cost as the object count grows.
var BlockLookupSizes = []int{16, 1 << 10, 64 << 10}

// BlockLookupName formats one sweep point's sub-benchmark name.
func BlockLookupName(objects int) string {
	if objects >= 1<<10 {
		return fmt.Sprintf("%dkobjects", objects>>10)
	}
	return fmt.Sprintf("%dobjects", objects)
}

// BenchBlockLookup measures the manager's address→object lookup (the fault
// handler's search structure) with the given number of live single-block
// objects.
func BenchBlockLookup(b *testing.B, objects int) {
	r := newMicroRig(b, microCfg())
	ptrs := make([]mem.Addr, objects)
	for i := range ptrs {
		p, err := r.mgr.Alloc(benchPage)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptrs[i%objects]
		if _, err := r.mgr.Translate(p + 128); err != nil {
			b.Fatal(err)
		}
	}
}

// reportVirtual attaches the run's virtual-time metrics to the benchmark
// result, normalised per operation so they are comparable across runs with
// different iteration counts: they travel into the benchgate summary, where
// the regression gate checks them with deterministic-grade tolerances.
func reportVirtual(b *testing.B, r *microRig) {
	reportVirtualExcluding(b, r, core.Stats{}, 0)
}

// reportVirtualExcluding is reportVirtual minus counters and virtual time
// booked during off-timer maintenance (e.g. the contended bench's reset
// flushes), whose share of the totals varies with b.N and would make the
// per-op metrics non-deterministic.
func reportVirtualExcluding(b *testing.B, r *microRig, excl core.Stats, exclVirt sim.Time) {
	st := r.mgr.Stats().Sub(excl)
	n := float64(b.N)
	b.ReportMetric(float64(r.clock.Now()-exclVirt)/n, "virt-ns/op")
	if st.Faults > 0 {
		b.ReportMetric(float64(st.Faults)/n, "faults/op")
	}
	if st.TransfersH2D > 0 {
		b.ReportMetric(float64(st.TransfersH2D)/n, "h2d-transfers/op")
	}
	if st.TransfersD2H > 0 {
		b.ReportMetric(float64(st.TransfersD2H)/n, "d2h-transfers/op")
	}
	if st.BytesH2D > 0 {
		b.ReportMetric(float64(st.BytesH2D)/n, "h2dB/op")
	}
	if st.BytesD2H > 0 {
		b.ReportMetric(float64(st.BytesD2H)/n, "d2hB/op")
	}
	if st.Evictions > 0 {
		b.ReportMetric(float64(st.Evictions)/n, "evictions/op")
	}
	if st.FaultBatches > 0 {
		b.ReportMetric(float64(st.FaultBatches)/n, "fault-batches/op")
		b.ReportMetric(float64(st.PrefetchedBlocks)/n, "prefetched/op")
	}
}
