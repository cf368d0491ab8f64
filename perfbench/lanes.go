package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// hostLanesThreads is the -hostthreads argument: one simulator lane per
// host CPU of the reference box.
const hostLanesThreads = 2

// hostLanesPass runs `gmacbench -hostthreads 2` once. Host lanes have no
// stable library API, so the workload goes through the CLI and reads its
// results from the output: the hostthreads-summary line on stderr and the
// fault and eviction counts on stdout. Set-up is the process wall time
// minus the storm wall time the process reports.
func hostLanesPass(ctx context.Context, bin, dir string) (passReport, error) {
	var rep passReport
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-hostthreads", strconv.Itoa(hostLanesThreads))
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	procWall := time.Since(start)
	rep.Attempted = 1
	if err != nil {
		rep.Failed = 1
		return rep, fmt.Errorf("gmacbench -hostthreads: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	rep.PeakRSS = maxRSS(cmd.ProcessState)
	rep.CPU = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	sum, err := parseSummary(findLine(stderr.String(), "hostthreads-summary:"))
	if err == nil {
		err = sum.checkCounts(findLine(stdout.String(), "faults serviced:"))
	}
	if err == nil && sum.threads != hostLanesThreads {
		err = fmt.Errorf("summary reports %d threads, want %d", sum.threads, hostLanesThreads)
	}
	if err != nil {
		rep.Failed = 1
		return rep, err
	}
	rep.Wall = sum.wall.Seconds()
	rep.Setup = (procWall - sum.wall).Seconds()
	rep.Sim.Virt = sum.virt
	rep.Sim.Core.Faults = sum.faults
	rep.Sim.Core.ReadFaults = sum.readFaults
	rep.Sim.Core.WriteFaults = sum.writeFaults
	rep.Sim.Core.Evictions = sum.evictions
	return rep, nil
}

// findLine returns the first line of out that, trimmed, starts with
// prefix, or "" when there is none.
func findLine(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// lanesSummary is one gmacbench -hostthreads result.
type lanesSummary struct {
	threads                int
	faults                 int64
	readFaults             int64
	writeFaults, evictions int64
	virt                   sim.Time
	wall                   time.Duration
}

// parseSummary parses
//
//	hostthreads-summary: threads=2 faults=2520 virt_us=32332 sim_faults_per_sec=77940 wall_ms=521
//
// Every key must appear once with a non-negative integer value (the rate
// may be fractional); anything else is an error.
func parseSummary(line string) (lanesSummary, error) {
	var s lanesSummary
	rest, ok := strings.CutPrefix(line, "hostthreads-summary:")
	if !ok {
		return s, fmt.Errorf("no hostthreads-summary line")
	}
	vals := map[string]string{}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if _, dup := vals[k]; !ok || dup {
			return s, fmt.Errorf("malformed hostthreads-summary field %q", f)
		}
		vals[k] = v
	}
	ints := map[string]int64{}
	for _, k := range []string{"threads", "faults", "virt_us", "wall_ms"} {
		n, err := strconv.ParseInt(vals[k], 10, 64)
		if err != nil || n < 0 {
			return s, fmt.Errorf("hostthreads-summary: bad %s=%q", k, vals[k])
		}
		ints[k] = n
	}
	if r, err := strconv.ParseFloat(vals["sim_faults_per_sec"], 64); err != nil || r < 0 {
		return s, fmt.Errorf("hostthreads-summary: bad sim_faults_per_sec=%q", vals["sim_faults_per_sec"])
	}
	if len(vals) != 5 {
		return s, fmt.Errorf("hostthreads-summary: %d fields, want 5", len(vals))
	}
	s.threads = int(ints["threads"])
	s.faults = ints["faults"]
	s.virt = sim.Time(ints["virt_us"]) * sim.Microsecond
	s.wall = time.Duration(ints["wall_ms"]) * time.Millisecond
	return s, nil
}

// checkCounts parses the "faults serviced:" line, which must agree with
// the summary's fault count, and records its read, write and eviction
// counts.
func (s *lanesSummary) checkCounts(line string) error {
	var total int64
	_, err := fmt.Sscanf(line, "faults serviced: %d (%d read, %d write), %d evictions",
		&total, &s.readFaults, &s.writeFaults, &s.evictions)
	if err != nil {
		return fmt.Errorf("parsing %q: %w", line, err)
	}
	if total != s.faults || s.readFaults+s.writeFaults != total {
		return fmt.Errorf("fault counts disagree: %q vs summary faults=%d", line, s.faults)
	}
	return nil
}
