package main

import (
	"fmt"
	"os"
	"time"
)

const mib = 1 << 20

// endToEnd fills the metrics a user of the simulator sees, as medians over
// untraced passes: set-up and timed-phase wall time, peak resident memory
// of the pass process, and simulated time (equal in every pass).
func endToEnd(m map[string]metric, passes []passReport) {
	var setup, wall, rss []float64
	for _, p := range passes {
		setup = append(setup, p.Setup)
		wall = append(wall, p.Wall)
		rss = append(rss, p.PeakRSS)
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["wall_s"] = metric{median(wall), "s"}
	m["peak_rss_mb"] = metric{median(rss), "MiB"}
	m["virt_s"] = metric{passes[0].Sim.Virt.Seconds(), "sim_s"}
}

// perLayer fills the per-layer metrics: counts and simulated totals of the
// first untraced pass, host-side samples as medians over untraced passes,
// and timings as medians over traced passes. Layers a workload does not
// call into read zero.
func perLayer(m map[string]metric, plain, spanned []passReport, tl *tally) {
	s := plain[0].Sim
	c := s.Core
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	count("core.faults", c.Faults)
	count("core.read_faults", c.ReadFaults)
	count("core.write_faults", c.WriteFaults)
	count("core.fault_batches", c.FaultBatches)
	count("core.prefetched_blocks", c.PrefetchedBlocks)
	count("core.evictions", c.Evictions)
	count("core.transfers_h2d", c.TransfersH2D)
	count("core.transfers_d2h", c.TransfersD2H)
	count("core.retries", c.Retries)
	blocksPerFault := 0.0
	if c.Faults > 0 {
		blocksPerFault = float64(c.Faults+c.PrefetchedBlocks) / float64(c.Faults)
	}
	m["core.blocks_per_fault"] = metric{blocksPerFault, "ratio"}
	m["core.search_virt_s"] = metric{c.SearchTime.Seconds(), "sim_s"}
	count("hostmmu.faults", s.MMU.Faults)
	count("hostmmu.mprotects", s.MMU.Mprotects)
	count("accel.launches", s.Dev.Launches)
	count("accel.copies_h2d", s.Dev.CopiesH2D)
	count("accel.copies_d2h", s.Dev.CopiesD2H)
	m["sim.virt_s"] = metric{s.Virt.Seconds(), "sim_s"}
	m["sim.pcie_mb"] = metric{float64(s.Dev.BytesH2D+s.Dev.BytesD2H) / mib, "sim_MiB"}
	for i, cat := range categories {
		m["sim.virt."+string(cat)+"_s"] = metric{s.Breakdown[i].Seconds(), "sim_s"}
	}

	med := func(f func(p passReport) float64, ps []passReport) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	m["access_p50_us"] = metric{med(func(p passReport) float64 { return p.AccessP50 }, plain), "us"}
	m["access_p999_us"] = metric{med(func(p passReport) float64 { return p.AccessTail }, plain), "us"}
	count("access_samples", int64(plain[0].AccessN))
	if q := plain[0].AccessQ; q != 0 && q != 0.999 {
		fmt.Fprintf(os.Stderr, "perfbench: access tail is p%g (%d samples per pass)\n", q*100, plain[0].AccessN)
	}
	m["proc.cpu_s"] = metric{med(func(p passReport) float64 { return p.CPU }, plain), "s"}
	m["go.alloc_mb"] = metric{med(func(p passReport) float64 { return float64(p.Go.AllocBytes) / mib }, plain), "MiB"}
	m["go.mallocs"] = metric{med(func(p passReport) float64 { return float64(p.Go.Mallocs) }, plain), "count"}
	m["go.gc_cycles"] = metric{med(func(p passReport) float64 { return float64(p.Go.GCCycles) }, plain), "count"}
	m["go.gc_pause_ms"] = metric{med(func(p passReport) float64 { return p.Go.GCPause * 1e3 }, plain), "ms"}
	m["go.heap_peak_mb"] = metric{med(func(p passReport) float64 { return float64(p.Go.HeapPeak) / mib }, plain), "MiB"}

	layers := make([]map[string]float64, len(spanned))
	for i, p := range spanned {
		layers[i] = layerMetrics(p.Spans, time.Duration(p.Wall*1e9), tl)
	}
	for _, l := range layerNames {
		xs := make([]float64, len(layers))
		for i, lm := range layers {
			xs[i] = lm[l.name]
		}
		m[l.name] = metric{median(xs), l.unit}
	}
	overhead := 0.0
	if len(spanned) > 0 {
		overhead = med(func(p passReport) float64 { return p.Wall }, spanned) -
			med(func(p passReport) float64 { return p.Wall }, plain)
	}
	m["trace.overhead_s"] = metric{overhead, "s"}
}

// layerNames are the timings layerMetrics derives from a traced pass.
var layerNames = []struct{ name, unit string }{
	{"machine.new_s", "s"},
	{"osabs.prepare_s", "s"},
	{"gmac.alloc_us.p50", "us"},
	{"gmac.free_us.p50", "us"},
	{"gmac.call_us.p50", "us"},
	{"gmac.call_self_s", "s"},
	{"gmac.access_hit_us.p50", "us"},
	{"gmac.access_fault_us.p50", "us"},
	{"gmac.access_fault_us.p999", "us"},
	{"core.fault_us.p50", "us"},
	{"core.fault_us.p999", "us"},
	{"gmac.io_s", "s"},
	{"accel.kernel_s", "s"},
	{"cudart.run_s", "s"},
	{"trace.self_s", "s"},
	{"trace.remainder_s", "s"},
}

// layerMetrics summarises one traced pass whose timed phase took wall.
// Span self times plus the remainder no span covers account for wall. That
// holds only if every span was closed and the timed spans lie inside the
// timed phase, so that the remainder is not negative; anything else counts
// as a failed check.
func layerMetrics(lt *layerTimes, wall time.Duration, tl *tally) map[string]float64 {
	m := map[string]float64{
		"machine.new_s":          lt.Total["machine.new"].Seconds(),
		"osabs.prepare_s":        lt.Total["osabs.prepare"].Seconds(),
		"gmac.alloc_us.p50":      lt.Calls["gmac.alloc"].at(0.5),
		"gmac.free_us.p50":       lt.Calls["gmac.free"].at(0.5),
		"gmac.call_us.p50":       lt.Calls["gmac.call"].at(0.5),
		"gmac.call_self_s":       lt.Self["gmac.call"].Seconds(),
		"gmac.access_hit_us.p50": lt.Calls["gmac.access_hit"].at(0.5),
		"gmac.io_s":              lt.Total["gmac.io"].Seconds(),
		"accel.kernel_s":         lt.Total["accel.kernel"].Seconds(),
		"cudart.run_s":           lt.Total["cudart.run"].Seconds(),
		"trace.self_s":           lt.TimedSelf.Seconds(),
		"trace.remainder_s":      (wall - lt.TimedRoots).Seconds(),
	}
	m["gmac.access_fault_us.p50"], m["gmac.access_fault_us.p999"], _ = lt.Calls["gmac.access_fault"].summary()
	m["core.fault_us.p50"], m["core.fault_us.p999"], _ = lt.Calls["core.fault"].summary()
	tl.check(lt.Unclosed == 0 && lt.TimedRoots >= 0 && lt.TimedRoots <= wall)
	return m
}
