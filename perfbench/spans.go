package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer of the simulator. Times are
// nanoseconds since the recorder's epoch; parent is the index of the
// enclosing span, or -1 for a root.
type span struct {
	name       string
	cell       string
	parent     int
	start, end int64
	setup      bool // recorded during set-up, outside the timed phase
}

// recorder keeps the spans of a traced run in memory. The in-process
// workloads drive the simulator from one goroutine, and every layer they
// call into (fault handler, kernel body) runs on the caller's goroutine,
// so spans nest strictly and need no locking.
type recorder struct {
	epoch time.Time
	cell  string
	setup bool
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, cell: r.cell, parent: parent, start: int64(time.Since(r.epoch)), setup: r.setup})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	r.spans[id].end = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// rename relabels span id once its outcome is known.
func (r *recorder) rename(id int, name string) { r.spans[id].name = name }

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered measures the union of the child intervals clipped to parent.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// layerTimes aggregates traced spans by name. Passes that run in several
// processes merge their parts.
type layerTimes struct {
	Total map[string]time.Duration // summed duration
	Self  map[string]time.Duration // summed self time
	Calls map[string]latencies     // per-span durations
	// TimedRoots and TimedSelf sum the root durations and the self times
	// of the spans recorded in timed phases. When spans nest properly the
	// two are equal.
	TimedRoots, TimedSelf time.Duration
	// Unclosed counts spans that were begun and never ended.
	Unclosed int
}

func aggregate(spans []span) *layerTimes {
	self := selfTimes(spans)
	lt := &layerTimes{
		Total: map[string]time.Duration{},
		Self:  map[string]time.Duration{},
		Calls: map[string]latencies{},
	}
	for i, s := range spans {
		if s.end < s.start {
			lt.Unclosed++
			continue
		}
		d := time.Duration(s.end - s.start)
		lt.Total[s.name] += d
		lt.Self[s.name] += time.Duration(self[i])
		lt.Calls[s.name] = append(lt.Calls[s.name], d)
		if s.setup {
			continue
		}
		lt.TimedSelf += time.Duration(self[i])
		if s.parent < 0 {
			lt.TimedRoots += d
		}
	}
	return lt
}

// merge adds o into lt.
func (lt *layerTimes) merge(o *layerTimes) {
	for k, v := range o.Total {
		lt.Total[k] += v
	}
	for k, v := range o.Self {
		lt.Self[k] += v
	}
	for k, v := range o.Calls {
		lt.Calls[k] = append(lt.Calls[k], v...)
	}
	lt.TimedRoots += o.TimedRoots
	lt.TimedSelf += o.TimedSelf
	lt.Unclosed += o.Unclosed
}

// writeSpans dumps spans as CSV: name, cell, parent, start_ns, end_ns,
// setup.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,cell,parent,start_ns,end_ns,setup")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%t\n", s.name, s.cell, s.parent, s.start, s.end, s.setup)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
