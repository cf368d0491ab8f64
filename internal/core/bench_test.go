package core

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Micro-benchmarks of the runtime's hot paths: what the Go implementation
// itself costs per operation, independent of the virtual-time model.

func benchRig(b *testing.B, cfg Config) *rig {
	b.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: testPage, SignalCost: 1500}, clock, bd)
	va := mem.NewVASpace(0x1000_0000, 0x40_0000_0000)
	dev := accel.New(accel.Config{
		Name:    "bench-gpu",
		MemBase: testDevBase,
		MemSize: 512 << 20,
		GFLOPS:  933,
		MemLink: interconnect.G280Memory(),
		H2D:     interconnect.PCIe2x16H2D(),
		D2H:     interconnect.PCIe2x16D2H(),
	}, clock)
	mgr, err := NewManager(cfg, clock, bd, mmu, va, dev)
	if err != nil {
		b.Fatal(err)
	}
	return &rig{clock: clock, bd: bd, mmu: mmu, va: va, dev: dev, mgr: mgr}
}

// BenchmarkBlockLookup measures the fault handler's registry search (the
// §5.2 O(log n) overhead) at several populations of one-block objects.
func BenchmarkBlockLookup(b *testing.B) {
	for _, objects := range []int{16, 1 << 10, 64 << 10} {
		var reg registry
		for i := 0; i < objects; i++ {
			o := &Object{addr: mem.Addr(i) << 12, size: 4096}
			o.blocks = []*Block{{obj: o, addr: o.addr, size: o.size}}
			if err := reg.insertObject(o); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("%dobjects", objects), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if blk, _ := reg.blockAt(mem.Addr(i%objects)<<12 + 128); blk == nil {
					b.Fatal("lookup miss")
				}
			}
		})
	}
}

// BenchmarkFaultResolution measures one write fault end to end: signal
// delivery, tree search, state transition, mprotect.
func BenchmarkFaultResolution(b *testing.B) {
	cfg := defaultCfg(RollingUpdate)
	cfg.BlockSize = 4 << 10
	r := benchRig(b, cfg)
	ptr, err := r.mgr.Alloc(256 << 20)
	if err != nil {
		b.Fatal(err)
	}
	one := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each write hits a fresh ReadOnly block: one fault each.
		off := int64(i%(64<<10)) * 4096
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), one); err != nil {
			b.Fatal(err)
		}
		if i%(64<<10) == (64<<10)-1 {
			b.StopTimer()
			// Reset states by reallocating.
			if err := r.mgr.Free(ptr); err != nil {
				b.Fatal(err)
			}
			ptr, err = r.mgr.Alloc(256 << 20)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkHostWriteThroughput measures bulk writes through the faulting
// path at a realistic block size.
func BenchmarkHostWriteThroughput(b *testing.B) {
	r := benchRig(b, defaultCfg(RollingUpdate))
	ptr, err := r.mgr.Alloc(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%64) << 20
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeSyncLoop measures the per-iteration runtime overhead of
// the call/return boundary with nothing dirty.
func BenchmarkInvokeSyncLoop(b *testing.B) {
	r := benchRig(b, defaultCfg(RollingUpdate))
	r.dev.Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
	if _, err := r.mgr.Alloc(16 << 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.mgr.Invoke("nop"); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFree measures the shared-allocation path (device alloc +
// host mapping + registry insert).
func BenchmarkAllocFree(b *testing.B) {
	r := benchRig(b, defaultCfg(LazyUpdate))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := r.mgr.Alloc(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
