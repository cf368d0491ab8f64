package core

import (
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file wires the manager into the observability layer: the metric
// handles it records into on hot paths, the counter series derived from
// Stats, the per-object snapshot used by the introspection endpoint's
// object table, and the process-wide registry of recent managers that lets
// a debug server find live runtimes without any plumbing through the
// experiment harnesses.

// metricSet caches the registry handles for what Stats cannot express:
// distributions and the rolling occupancy. Handles are resolved once in
// NewManager; the record path is pure atomics. Each carries a
// {protocol=...} label; managers with the same protocol share them.
type metricSet struct {
	faultNs     *metrics.Histogram
	searchDepth *metrics.Histogram
	rollingOcc  *metrics.Gauge
	rollingHist *metrics.Histogram
}

func newMetricSet(r *metrics.Registry, proto ProtocolKind) *metricSet {
	p := proto.String()
	lbl := func(name string) string { return metrics.Label(name, "protocol", p) }
	return &metricSet{
		faultNs:     r.Histogram(lbl("adsm_fault_service_ns"), metrics.LatencyBuckets),
		searchDepth: r.Histogram(lbl("adsm_search_depth_nodes"), metrics.DepthBuckets),
		rollingOcc:  r.Gauge(lbl("adsm_rolling_occupancy")),
		rollingHist: r.Histogram(lbl("adsm_rolling_occupancy_blocks"), metrics.DepthBuckets),
	}
}

// --- counter series derived from Stats ---

// The adsm_*_total{protocol=...} series are function-backed counters that
// sum one Stats counter over every manager of a protocol at scrape time:
// live managers' statsCounters plus the retired totals that collected
// managers folded into. Each event is counted once, in the manager's own
// atomics; the totals stay exact and monotonic and pin no manager.
var exported struct {
	//adsm:lock exportedMu 70 nowait
	mu      sync.Mutex
	live    map[*statsCounters]ProtocolKind
	retired [RollingUpdate + 1]Stats
	once    [RollingUpdate + 1]sync.Once // registers a protocol's series
}

// statsLease is referenced only by its manager, so its finalizer runs once
// the manager is unreachable. (The manager itself cannot carry the
// finalizer: its MMU fault handler closes over it, and Go does not
// finalize objects in reference cycles.)
type statsLease struct {
	c     *statsCounters
	proto ProtocolKind
}

// exportStats adds m's counters to its protocol's adsm_*_total series.
func exportStats(m *Manager) {
	p := m.cfg.Protocol
	exported.once[p].Do(func() {
		keys, st := Stats{}.Counters(), reflect.TypeOf(Stats{})
		for i := 0; i < st.NumField(); i++ {
			name := st.Field(i).Name
			if _, ok := keys[name]; ok {
				series := metrics.Label(seriesName(name), "protocol", p.String())
				metrics.Default().CounterFunc(series, func() int64 { return exportedTotal(p, i) })
			}
		}
	})
	m.lease = &statsLease{c: m.stats, proto: p}
	exported.mu.Lock()
	if exported.live == nil {
		exported.live = make(map[*statsCounters]ProtocolKind)
	}
	exported.live[m.stats] = p
	exported.mu.Unlock()
	runtime.SetFinalizer(m.lease, (*statsLease).fold)
}

// fold moves a collected manager's final counts into the retired totals.
func (l *statsLease) fold() {
	s := l.c.load()
	exported.mu.Lock()
	exported.retired[l.proto] = exported.retired[l.proto].Add(s)
	delete(exported.live, l.c)
	exported.mu.Unlock()
}

// exportedTotal sums Stats field i over every manager of protocol p.
func exportedTotal(p ProtocolKind, i int) int64 {
	exported.mu.Lock()
	defer exported.mu.Unlock()
	v := reflect.ValueOf(&exported.retired[p]).Elem().Field(i).Int()
	for c, q := range exported.live {
		if q == p {
			v += c.field(i).Load()
		}
	}
	return v
}

// seriesName maps a Stats counter to its series name, FaultBatches to
// adsm_fault_batches_total; DeviceLostEvents keeps adsm_device_lost_total.
func seriesName(field string) string {
	if field == "DeviceLostEvents" {
		return "adsm_device_lost_total"
	}
	return "adsm_" + strings.ToLower(wordBreak.ReplaceAllString(field, "${1}_${2}")) + "_total"
}

var wordBreak = regexp.MustCompile(`([a-z])([A-Z])`)

// ObjectSnapshot is one row of the introspection endpoint's object table.
type ObjectSnapshot struct {
	Addr    mem.Addr `json:"addr"`
	DevAddr mem.Addr `json:"dev_addr"`
	Size    int64    `json:"size"`
	Blocks  int      `json:"blocks"`
	Safe    bool     `json:"safe,omitempty"`
	Kernels int      `json:"kernels,omitempty"`
	// Freed marks an object that has been released; its final counters are
	// retained (bounded) so short-lived runs stay attributable.
	Freed bool `json:"freed,omitempty"`
	// Degraded marks an object running host-resident after a device loss.
	Degraded bool     `json:"degraded,omitempty"`
	Stats    ObjStats `json:"stats"`
}

// maxRetiredObjects bounds the per-manager ring of freed-object rows.
const maxRetiredObjects = 64

// traffic is the ranking key: total attributed activity.
func (s ObjectSnapshot) traffic() int64 {
	return s.Stats.BytesH2D + s.Stats.BytesD2H + s.Stats.Faults + s.Stats.Evictions
}

// snapshotObject builds one table row from a live object.
func snapshotObject(o *Object) ObjectSnapshot {
	return ObjectSnapshot{
		Addr:     o.addr,
		DevAddr:  o.devAddr,
		Size:     o.size,
		Blocks:   len(o.blocks),
		Safe:     o.safe,
		Kernels:  len(o.kernels),
		Degraded: o.degraded.Load(),
		Stats:    o.counters.load(),
	}
}

// SnapshotObjects returns the live objects' static facts and counters plus
// the most recently freed objects' final rows, ranked by fault/transfer
// traffic (heaviest first). It is safe to call from any goroutine while
// the run is in flight: live rows come from the registry's published
// views, the retired ring is guarded by introMu, and the per-object
// counters are atomic.
func (m *Manager) SnapshotObjects() []ObjectSnapshot {
	live := m.reg.snapshot()
	m.introMu.Lock()
	out := make([]ObjectSnapshot, 0, len(live)+len(m.retired))
	out = append(out, m.retired...)
	m.introMu.Unlock()
	for _, o := range live {
		out = append(out, snapshotObject(o))
	}
	sort.Slice(out, func(i, j int) bool {
		if ti, tj := out[i].traffic(), out[j].traffic(); ti != tj {
			return ti > tj
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// retire keeps o's final row in the retired ring once it has left the
// registry.
func (m *Manager) retire(o *Object) {
	s := snapshotObject(o)
	s.Freed = true
	m.introMu.Lock()
	m.retired = append(m.retired, s)
	if len(m.retired) > maxRetiredObjects {
		m.retired = append(m.retired[:0:0], m.retired[len(m.retired)-maxRetiredObjects:]...)
	}
	m.introMu.Unlock()
}

// --- process-wide manager registry ---

// maxRecentManagers bounds how many managers the registry retains.
// Experiment harnesses construct managers in a loop; keeping only the most
// recent ones caps the memory pinned by introspection.
const maxRecentManagers = 16

var mgrReg struct {
	//adsm:lock mgrRegMu 50 nowait
	mu   sync.Mutex
	seq  int
	mgrs []*Manager
	// autoTrace, when positive, installs a span tracer of that capacity on
	// every newly built manager.
	autoTrace int
}

// registerManager assigns the manager an ID and retains it for
// introspection, evicting the oldest beyond maxRecentManagers.
func registerManager(m *Manager) {
	mgrReg.mu.Lock()
	defer mgrReg.mu.Unlock()
	mgrReg.seq++
	m.id = mgrReg.seq
	if mgrReg.autoTrace > 0 && m.spans == nil {
		t := trace.NewTracer(mgrReg.autoTrace)
		m.spans = t
		m.tracer = t.Log()
	}
	mgrReg.mgrs = append(mgrReg.mgrs, m)
	if len(mgrReg.mgrs) > maxRecentManagers {
		mgrReg.mgrs = append(mgrReg.mgrs[:0:0], mgrReg.mgrs[len(mgrReg.mgrs)-maxRecentManagers:]...)
	}
}

// RecentManagers returns the most recently constructed managers, oldest
// first. The introspection endpoint serves its object tables from them.
func RecentManagers() []*Manager {
	mgrReg.mu.Lock()
	defer mgrReg.mu.Unlock()
	return append([]*Manager(nil), mgrReg.mgrs...)
}

// SetAutoTrace makes every future manager start with a span tracer of the
// given capacity (0 disables). The debug server enables it so /adsm/trace
// has data without the harness opting in explicitly.
func SetAutoTrace(capacity int) {
	mgrReg.mu.Lock()
	mgrReg.autoTrace = capacity
	mgrReg.mu.Unlock()
}

// ID returns the manager's process-wide construction sequence number.
func (m *Manager) ID() int { return m.id }
