package main

import (
	"fmt"
	"time"

	"repro/gmac"
	"repro/internal/cudart"
	"repro/internal/workloads"
	"repro/machine"
)

// paperVariants lists the cells of one paper-eval benchmark. The GMAC
// variants run first so the CUDA cell can wrap the kernels their first
// Call looked up.
var paperVariants = []workloads.Variant{
	workloads.VariantBatch, workloads.VariantLazy, workloads.VariantRolling, workloads.VariantCUDA,
}

var variantProtocol = map[workloads.Variant]gmac.Protocol{
	workloads.VariantBatch:   gmac.BatchUpdate,
	workloads.VariantLazy:    gmac.LazyUpdate,
	workloads.VariantRolling: gmac.RollingUpdate,
}

// paperPass runs one Parboil benchmark of the Figure 7/8/10 sweep, the one
// named bench, at evaluation scale: under the three GMAC protocols and the
// CUDA baseline, on a fresh 1 GiB G280 paper testbed per cell. The sweep
// is deterministic, so it takes no seed. Every variant must compute the
// same checksum.
func paperPass(pc *passCtx, bench string) (passReport, error) {
	var rep passReport
	var b workloads.Benchmark
	for _, c := range workloads.Parboil() {
		if c.Name() == bench {
			b = c
		}
	}
	if b == nil {
		return rep, fmt.Errorf("paper-eval: unknown Parboil benchmark %q", bench)
	}
	sums := map[workloads.Variant]float64{}
	for _, v := range paperVariants {
		sum, err := runCell(pc, &rep, b, v)
		pc.tl.attempt(err == nil)
		if err != nil {
			return rep, err
		}
		sums[v] = sum
		pc.sampleHeap()
	}
	for _, v := range paperVariants {
		if !pc.tl.check(sums[v] == sums[workloads.VariantCUDA]) {
			return rep, fmt.Errorf("%s/%s checksum %v diverges from cuda %v",
				b.Name(), v, sums[v], sums[workloads.VariantCUDA])
		}
	}
	return rep, nil
}

// runCell builds a fresh testbed and runs one (benchmark, variant) cell,
// adding its times and simulated totals to rep. Everything before the
// benchmark's own RunCUDA or RunGMAC is set-up; that call is the timed
// phase.
func runCell(pc *passCtx, rep *passReport, b workloads.Benchmark, v workloads.Variant) (float64, error) {
	t := pc.t
	t.setCell(b.Name() + "/" + string(v))
	t.setPhase(true)
	start := time.Now()
	id := t.begin("machine.new")
	m := machine.PaperTestbed()
	t.end(id)
	b.Register(m.Device())
	id = t.begin("osabs.prepare")
	err := b.Prepare(m)
	t.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: prepare: %w", b.Name(), err)
	}
	var (
		ctx *gmac.Context
		s   gmac.Session
		rt  *cudart.Runtime
	)
	if v == workloads.VariantCUDA {
		rt = cudart.New(m.Device(), m.Clock, m.Breakdown)
		t.wrapKnownKernels(m.Device())
	} else {
		ctx, err = gmac.NewContext(m, gmac.Config{Protocol: variantProtocol[v]})
		if err != nil {
			return 0, err
		}
		s = pc.session(ctx, m)
	}
	virt0 := m.Elapsed()
	t.setPhase(false)
	run, cpu := time.Now(), cpuTime()
	rep.Setup += run.Sub(start).Seconds()
	var sum float64
	if rt != nil {
		id = t.begin("cudart.run")
		sum, err = b.RunCUDA(m, rt)
	} else {
		id = t.begin("gmac.run")
		sum, err = b.RunGMAC(s)
	}
	t.end(id)
	rep.Wall += time.Since(run).Seconds()
	rep.CPU += (cpuTime() - cpu).Seconds()
	if err != nil {
		return 0, fmt.Errorf("%s/%s: %w", b.Name(), v, err)
	}
	cell := snapshot(m, ctx)
	cell.Virt = m.Elapsed() - virt0
	rep.Sim.add(cell, 1)
	return sum, nil
}
