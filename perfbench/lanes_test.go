package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
)

const goodSummary = "hostthreads-summary: threads=2 faults=2520 virt_us=32332 sim_faults_per_sec=77940 wall_ms=521"

func TestParseSummary(t *testing.T) {
	s, err := parseSummary(goodSummary)
	if err != nil {
		t.Fatal(err)
	}
	want := lanesSummary{threads: 2, faults: 2520, virt: 32332 * sim.Microsecond, wall: 521 * time.Millisecond}
	if s != want {
		t.Errorf("parseSummary = %+v, want %+v", s, want)
	}
}

func TestParseSummaryRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"hostthreads: 2 threads",
		"hostthreads-summary:",
		"hostthreads-summary: threads=2 faults=2520 virt_us=32332 sim_faults_per_sec=77940",          // no wall_ms
		"hostthreads-summary: threads=2 faults=x virt_us=32332 sim_faults_per_sec=77940 wall_ms=521", // not a number
		"hostthreads-summary: threads=2 faults=-1 virt_us=32332 sim_faults_per_sec=77940 wall_ms=521",
		"hostthreads-summary: threads=2 faults=2520 virt_us=32.5 sim_faults_per_sec=77940 wall_ms=521",
		"hostthreads-summary: threads=2 faults=2520 faults=2520 virt_us=32332 sim_faults_per_sec=77940 wall_ms=521",
		"hostthreads-summary: threads=2 faults=2520 virt_us=32332 sim_faults_per_sec=77940 wall_ms=521 extra=1",
		"hostthreads-summary: threads=2 faults=2520 virt_us=32332 sim_faults_per_sec=77940 wall_ms",
	} {
		if _, err := parseSummary(line); err == nil {
			t.Errorf("parseSummary(%q) accepted a malformed line", line)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	s, _ := parseSummary(goodSummary)
	if err := s.checkCounts("faults serviced:     2520 (600 read, 1920 write), 1680 evictions"); err != nil {
		t.Fatal(err)
	}
	if s.readFaults != 600 || s.writeFaults != 1920 || s.evictions != 1680 {
		t.Errorf("counts = %+v", s)
	}
	for _, line := range []string{
		"faults serviced:     2521 (601 read, 1920 write), 1680 evictions", // disagrees with summary
		"faults serviced:     2520 (600 read, 1900 write), 1680 evictions", // parts do not sum
		"faults serviced: lots",
	} {
		if err := s.checkCounts(line); err == nil {
			t.Errorf("checkCounts(%q) accepted it", line)
		}
	}
}

// fakeGmacbench writes a script that prints the given output the way
// gmacbench -hostthreads does.
func fakeGmacbench(t *testing.T, stdout, stderr string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gmacbench")
	script := "#!/bin/sh\nprintf '%s\\n' '" + stdout + "'\nprintf '%s\\n' '" + stderr + "' >&2\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestHostLanesPass(t *testing.T) {
	counts := "  faults serviced:     2520 (600 read, 1920 write), 1680 evictions"
	rep, err := hostLanesPass(context.Background(), fakeGmacbench(t, counts, goodSummary), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 1 || rep.Failed != 0 || rep.Sim.Core.Faults != 2520 || rep.Sim.Core.Evictions != 1680 ||
		rep.Sim.Virt != 32332*sim.Microsecond || rep.Wall != 0.521 {
		t.Errorf("report = %+v", rep)
	}
}

func TestHostLanesPassCountsMalformedSummaryAsFailure(t *testing.T) {
	counts := "  faults serviced:     2520 (600 read, 1920 write), 1680 evictions"
	bin := fakeGmacbench(t, counts, "hostthreads-summary: threads=2 faults=2520 wall_ms=521")
	rep, err := hostLanesPass(context.Background(), bin, t.TempDir())
	if err == nil || rep.Attempted != 1 || rep.Failed != 1 {
		t.Errorf("malformed summary: err %v, attempted %d, failed %d; want an error and one failure",
			err, rep.Attempted, rep.Failed)
	}
}
