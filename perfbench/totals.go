package main

import (
	"reflect"
	"runtime/metrics"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hostmmu"
	"repro/internal/sim"
	"repro/machine"
)

// simTotals are the simulated outputs of one pass. They are a pure
// function of the workload and its seed, so two passes of one seed, traced
// or not, must produce equal totals.
type simTotals struct {
	Virt      sim.Time
	Core      core.Stats
	MMU       hostmmu.Stats
	Dev       accel.Stats
	Breakdown [len(categories)]sim.Time
}

// categories are the 13 Figure 10 execution-time categories.
var categories = [13]sim.Category{
	sim.CatCopy, sim.CatMalloc, sim.CatFree, sim.CatLaunch, sim.CatSync, sim.CatSignal,
	sim.CatCudaMalloc, sim.CatCudaFree, sim.CatCudaLaunch, sim.CatGPU,
	sim.CatIORead, sim.CatIOWrite, sim.CatCPU,
}

// snapshot reads a machine's cumulative counters; ctx is nil for a CUDA
// cell.
func snapshot(m *machine.Machine, ctx *gmac.Context) simTotals {
	s := simTotals{Virt: m.Elapsed(), MMU: m.MMU.Stats(), Dev: m.Device().Stats()}
	if ctx != nil {
		s.Core = ctx.Stats()
	}
	for i, c := range categories {
		s.Breakdown[i] = m.Breakdown.Get(c)
	}
	return s
}

// add adds (sign 1) or subtracts (sign -1) o into s.
func (s *simTotals) add(o simTotals, sign int64) {
	addInts(reflect.ValueOf(s).Elem(), reflect.ValueOf(o), sign)
}

// addInts adds sign times every integer of src into dst, recursing into
// structs and arrays of the same type.
func addInts(dst, src reflect.Value, sign int64) {
	switch dst.Kind() {
	case reflect.Int64:
		dst.SetInt(dst.Int() + sign*src.Int())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addInts(dst.Field(i), src.Field(i), sign)
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			addInts(dst.Index(i), src.Index(i), sign)
		}
	}
}

// goStats are Go runtime counters, read from runtime/metrics.
type goStats struct {
	AllocBytes, Mallocs, GCCycles uint64
	GCPause                       float64 // seconds
	HeapPeak                      uint64  // largest live heap at a sampling point
}

// heapObjects is the live-heap sample behind goStats.HeapPeak.
const heapObjects = "/memory/classes/heap/objects:bytes"

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/automatic:gc-cycles",
	"/gc/pauses:seconds",
}

func readGo() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	g := goStats{
		AllocBytes: s[0].Value.Uint64(),
		Mallocs:    s[1].Value.Uint64(),
		GCCycles:   s[2].Value.Uint64(),
	}
	// The pause histogram has no sum; each pause is taken at its bucket's
	// lower bound.
	h := s[3].Value.Float64Histogram()
	for i, c := range h.Counts {
		g.GCPause += float64(c) * max(h.Buckets[i], 0)
	}
	return g
}

// since returns the counters accumulated since base.
func (g goStats) since(base goStats) goStats {
	return goStats{
		AllocBytes: g.AllocBytes - base.AllocBytes,
		Mallocs:    g.Mallocs - base.Mallocs,
		GCCycles:   g.GCCycles - base.GCCycles,
		GCPause:    g.GCPause - base.GCPause,
	}
}
