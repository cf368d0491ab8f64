package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
)

// passCtx is the state one in-process pass threads through its workload.
type passCtx struct {
	t      *tracer // nil in an untraced pass
	tl     tally
	heap   uint64 // largest live heap seen at a sampling point
	access latencies
}

// sampleHeap records the live heap; workloads call it between cells or
// rounds.
func (p *passCtx) sampleHeap() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	p.heap = max(p.heap, s[0].Value.Uint64())
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs one pass of an in-process workload. When spanPath is set
// the pass is traced: its spans are written there and summarised into
// per-layer timings.
func runPass(name, bench string, seed uint64, spanPath string) passReport {
	pc := &passCtx{}
	if spanPath != "" {
		pc.t = newTracer()
	}
	g0 := readGo()
	var rep passReport
	var err error
	switch name {
	case "paper-eval":
		rep, err = paperPass(pc, bench)
	case "fault-storm":
		rep, err = stormPass(pc, seed)
	default:
		err = fmt.Errorf("workload %q does not run in process", name)
	}
	rep.Go = readGo().since(g0)
	rep.Go.HeapPeak = pc.heap
	rep.AccessP50, rep.AccessTail, rep.AccessQ = pc.access.summary()
	rep.AccessN = len(pc.access)
	if err != nil {
		rep.Error = err.Error()
		pc.tl.attempt(false)
	}
	if pc.t != nil && err == nil {
		rep.Spans = aggregate(pc.t.rec.spans)
		if werr := writeSpans(spanPath, pc.t.rec.spans); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
		}
	}
	rep.Attempted, rep.Failed = pc.tl.attempted, pc.tl.failed
	return rep
}
