package core

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// wantSeries pins the derived counter series: one per Stats.Counters key,
// under the names the recorded counters carried before they were derived
// (the first 22), plus the six counters that were not exported before.
var wantSeries = []string{
	"adsm_faults_total", "adsm_read_faults_total", "adsm_write_faults_total",
	"adsm_bytes_h2d_total", "adsm_bytes_d2h_total",
	"adsm_transfers_h2d_total", "adsm_transfers_d2h_total",
	"adsm_evictions_total",
	"adsm_allocs_total", "adsm_frees_total", "adsm_invokes_total", "adsm_syncs_total",
	"adsm_retries_total", "adsm_retry_giveups_total",
	"adsm_degraded_objects_total", "adsm_device_lost_total",
	"adsm_mode_migrations_total", "adsm_fetch_elisions_total", "adsm_flush_elisions_total",
	"adsm_fault_batches_total", "adsm_prefetched_blocks_total",
	"adsm_races_detected_total",

	"adsm_peer_bytes_in_total", "adsm_peer_bytes_out_total",
	"adsm_region_acquires_total", "adsm_region_releases_total",
	"adsm_span_promotions_total", "adsm_span_demotions_total",
}

func TestSeriesNamesMatchStatsCounters(t *testing.T) {
	var got []string
	for name := range (Stats{}).Counters() {
		got = append(got, seriesName(name))
	}
	want := append([]string(nil), wantSeries...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("derived series\n got %v\nwant %v", got, want)
	}
	if n := len(Stats{}.Counters()); n != len(wantSeries) {
		t.Fatalf("Stats.Counters has %d keys, %d series pinned", n, len(wantSeries))
	}
}

// seriesKey is a series' flat registry name for protocol p.
func seriesKey(series string, p ProtocolKind) string {
	return metrics.Label(series, "protocol", p.String())
}

// scrapeAll reads every derived series through each renderer, keyed by flat
// registry name; renderers that lack a series report it as -1.
func scrapeAll(t *testing.T, keys []string) (snap, text, om map[string]int64) {
	t.Helper()
	r := metrics.Default()
	snap, text, om = map[string]int64{}, map[string]int64{}, map[string]int64{}
	s := r.Snapshot()
	var tb, ob bytes.Buffer
	if err := r.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&ob); err != nil {
		t.Fatal(err)
	}
	textVals := parseLines(t, tb.String())
	omVals := parseLines(t, ob.String())
	for _, k := range keys {
		snap[k], text[k], om[k] = -1, -1, -1
		if v, ok := s.Counters[k]; ok {
			snap[k] = v
		}
		if v, ok := textVals[k]; ok {
			text[k] = v
		}
		base, label, _ := strings.Cut(k, "{protocol=")
		if v, ok := omVals[base+`{protocol="`+strings.TrimSuffix(label, "}")+`"}`]; ok {
			om[k] = v
		}
	}
	return snap, text, om
}

// parseLines maps the first field of each "name value" line to its value.
func parseLines(t *testing.T, out string) map[string]int64 {
	vals := map[string]int64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "adsm_") {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		vals[f[0]] = v
	}
	return vals
}

// TestCounterSeriesSumStats pins the derivation: every adsm_*_total series
// equals its pre-test value plus the Stats counter summed over the
// managers built here, in all three renderers, while the managers are live
// and after one of them has been collected and folded into the retired
// totals.
func TestCounterSeriesSumStats(t *testing.T) {
	protos := []ProtocolKind{RollingUpdate, LazyUpdate}
	var keys []string
	for _, p := range protos {
		for _, s := range wantSeries {
			keys = append(keys, seriesKey(s, p))
		}
	}
	pre, _, _ := scrapeAll(t, keys)

	a := runKernelRoundTrip(t, RollingUpdate)
	b := runKernelRoundTrip(t, RollingUpdate)
	c := runKernelRoundTrip(t, LazyUpdate)
	want := map[string]int64{}
	for _, k := range keys {
		want[k] = max(pre[k], 0)
	}
	for _, r := range []*rig{a, b, c} {
		for name, v := range r.mgr.Stats().Counters() {
			want[seriesKey(seriesName(name), r.mgr.Protocol())] += v
		}
	}
	if want[seriesKey("adsm_faults_total", RollingUpdate)] == max(pre[seriesKey("adsm_faults_total", RollingUpdate)], 0) {
		t.Fatal("the managers took no faults; the check is vacuous")
	}
	check := func(when string) {
		t.Helper()
		snap, text, om := scrapeAll(t, keys)
		for _, k := range keys {
			if snap[k] != want[k] || text[k] != want[k] || om[k] != want[k] {
				t.Errorf("%s: %s = %d (Snapshot), %d (WriteText), %d (WriteOpenMetrics), want %d",
					when, k, snap[k], text[k], om[k], want[k])
			}
		}
	}
	check("live")
	for name := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(name, "adsm_") && !slices.Contains(keys, name) &&
			(strings.HasSuffix(name, seriesKey("", RollingUpdate)) || strings.HasSuffix(name, seriesKey("", LazyUpdate))) {
			t.Errorf("unexpected counter series %s", name)
		}
	}

	// Drop b: out of the recent-manager registry, then unreachable.
	stats := b.mgr.stats
	mgrReg.mu.Lock()
	for i, m := range mgrReg.mgrs {
		if m == b.mgr {
			mgrReg.mgrs = append(mgrReg.mgrs[:i:i], mgrReg.mgrs[i+1:]...)
			break
		}
	}
	mgrReg.mu.Unlock()
	b = nil
	folded := func() bool {
		exported.mu.Lock()
		defer exported.mu.Unlock()
		_, live := exported.live[stats]
		return !live
	}
	for deadline := time.Now().Add(10 * time.Second); !folded(); {
		if time.Now().After(deadline) {
			t.Fatal("dropped manager's counters never folded into the retired totals")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	check("after collection")
	runtime.KeepAlive(a)
	runtime.KeepAlive(c)
}

// TestSnapshotObjectsRows checks SnapshotObjects against the registry: one
// live row per object, also for an object spanning several registry
// shards, and a Freed row for a released one.
func TestSnapshotObjectsRows(t *testing.T) {
	r := newRig(t, defaultCfg(BatchUpdate))
	small, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	const bigSize = 3 << 20
	big, err := r.mgr.Alloc(bigSize)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]bool{}
	for a := big; a < big+bigSize; a += 1 << regGranuleBits {
		shards[regShardOf(a)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("a %d-byte object covers %d registry shard(s); the test needs several", bigSize, len(shards))
	}
	gone, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(gone); err != nil {
		t.Fatal(err)
	}

	live := map[mem.Addr]int{}
	var freed []ObjectSnapshot
	for _, row := range r.mgr.SnapshotObjects() {
		if row.Freed {
			freed = append(freed, row)
			continue
		}
		live[row.Addr]++
	}
	if len(live) != r.mgr.Objects() {
		t.Fatalf("%d live rows, Objects() = %d", len(live), r.mgr.Objects())
	}
	for _, addr := range []mem.Addr{small, big} {
		if live[addr] != 1 {
			t.Errorf("object %#x listed %d times, want once", uint64(addr), live[addr])
		}
	}
	if len(freed) != 1 || freed[0].Addr != gone || freed[0].Size != 64<<10 {
		t.Fatalf("freed rows = %+v, want one for %#x", freed, uint64(gone))
	}
}
