package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{name: "gmac.call", parent: -1, start: 0, end: 100},
		{name: "accel.kernel", parent: 0, start: 10, end: 40},
		{name: "inner", parent: 1, start: 20, end: 30},
		{name: "accel.kernel", parent: 0, start: 50, end: 70},
		{name: "gmac.access", parent: -1, start: 200, end: 260},
		// A child overrunning its parent counts only inside the parent.
		{name: "core.fault", parent: 4, start: 250, end: 300},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 10, 20, 50, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},
		{parent: 0, start: 60, end: 70},
	}
	if got := covered(spans[0], spans, []int{3, 1, 2}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestRecorderNestingAndAggregate(t *testing.T) {
	r := newRecorder()
	r.setup = true
	s := r.begin("machine.new")
	r.end(s)
	r.setup = false
	call := r.begin("gmac.call")
	k := r.begin("accel.kernel")
	r.end(k)
	r.end(call)
	a := r.begin("gmac.access")
	f := r.begin("core.fault")
	r.end(f)
	r.end(a)
	r.rename(a, "gmac.access_fault")

	parents := []int{-1, -1, 1, -1, 3}
	for i, sp := range r.spans {
		if sp.parent != parents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, sp.name, sp.parent, parents[i])
		}
	}
	lt := aggregate(r.spans)
	if lt.TimedSelf != lt.TimedRoots {
		t.Errorf("timed self %v != timed roots %v", lt.TimedSelf, lt.TimedRoots)
	}
	if want := time.Duration(r.spans[1].end - r.spans[1].start + r.spans[3].end - r.spans[3].start); lt.TimedRoots != want {
		t.Errorf("timed roots = %v, want %v (set-up spans excluded)", lt.TimedRoots, want)
	}
	if len(lt.Calls["gmac.access_fault"]) != 1 || len(lt.Calls["gmac.access"]) != 0 {
		t.Error("renamed span not aggregated under its new name")
	}
	if got, want := lt.Self["gmac.call"]+lt.Total["accel.kernel"], lt.Total["gmac.call"]; got != want {
		t.Errorf("call self + kernel = %v, want call total %v", got, want)
	}
}

func TestLayerMetricsAccountsForWall(t *testing.T) {
	spans := []span{
		{name: "machine.new", parent: -1, start: 0, end: 1000, setup: true},
		{name: "gmac.call", parent: -1, start: 1000, end: 1600},
		{name: "accel.kernel", parent: 1, start: 1100, end: 1400},
	}
	var tl tally
	m := layerMetrics(aggregate(spans), 800, &tl)
	if tl.failed != 0 {
		t.Fatal("accounting check failed on nested spans")
	}
	if d := m["trace.self_s"] + m["trace.remainder_s"] - 800e-9; d > 1e-15 || d < -1e-15 {
		t.Errorf("self %v + remainder %v != wall 800ns", m["trace.self_s"], m["trace.remainder_s"])
	}
	if m["gmac.call_self_s"] != 300e-9 || m["accel.kernel_s"] != 300e-9 || m["machine.new_s"] != 1000e-9 {
		t.Errorf("layer metrics = %v", m)
	}
}

func TestLayerMetricsFailsOnSpansOutsideWall(t *testing.T) {
	for name, spans := range map[string][]span{
		// The timed spans cover 900ns of an 800ns timed phase.
		"outside window": {
			{name: "gmac.call", parent: -1, start: 1000, end: 1600},
			{name: "gmac.free", parent: -1, start: 1700, end: 2000},
		},
		// A span begun and never ended.
		"unclosed": {
			{name: "gmac.call", parent: -1, start: 1000, end: 1600},
			{name: "gmac.access", parent: -1, start: 1700},
		},
	} {
		var tl tally
		layerMetrics(aggregate(spans), 800, &tl)
		if tl.attempted != 1 || tl.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 1 and 1", name, tl.attempted, tl.failed)
		}
	}
}
