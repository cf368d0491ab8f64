// Command perfbench is the repository's benchmark. It measures what the
// simulator costs to run (host wall time and memory) and what it outputs
// (simulated time and traffic) on three workloads:
//
//   - paper-eval: the Figure 7/8/10 Parboil sweep at evaluation scale,
//     without pns;
//   - fault-storm: a seeded, read-heavy host access stream on one
//     rolling-update context, where the coherence runtime does the work;
//   - host-lanes: `gmacbench -hostthreads 2`, the only workload with
//     simulator lanes active.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fault-storm --seed 1 --seconds 30 --trace 0
//
// A run repeats passes, each a fixed amount of work in a fresh process,
// until --seconds is spent. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end ones, medians over untraced
// passes; with --trace 1 they are the per-layer ones: counts from untraced
// passes, timings from traced passes that record a span around each call
// into a layer. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/workloads"
)

// passReport is what one pass reports: its set-up and timed-phase wall
// time, its simulated totals and the host-side samples taken during it.
type passReport struct {
	Setup, Wall float64 // host seconds
	PeakRSS     float64 // MiB, peak resident set of the pass's process
	// CPU is the user plus system CPU time of the timed phase, in seconds
	// (for host-lanes, of the whole process). The kernel leaves out time
	// the hypervisor stole, so on a busy host it moves less than Wall.
	CPU float64
	Sim simTotals
	// AccessP50 and AccessTail are the median and tail (percentile
	// AccessQ) wall time of the pass's HostRead/HostWrite calls, in µs.
	AccessP50, AccessTail, AccessQ float64
	AccessN                        int
	Go                             goStats
	// Spans aggregates a traced pass's spans by layer.
	Spans             *layerTimes `json:",omitempty"`
	Attempted, Failed int64
	Error             string `json:",omitempty"`
}

// tally counts attempted operations and failures. A failure is an error
// returned by the simulator or a failed correctness check.
type tally struct{ attempted, failed int64 }

func (t *tally) attempt(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// check counts one correctness check and returns ok.
func (t *tally) check(ok bool) bool {
	t.attempt(ok)
	return ok
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds a whole run of the given budget, child processes
// included. A run starts a pass only if it would end within the budget, so
// the margin covers one pass that overruns the longest seen so far.
func runDeadline(budget time.Duration) time.Duration { return 2*budget + 60*time.Second }

var workloadNames = []string{"paper-eval", "fault-storm", "host-lanes"}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed (fault-storm; the other workloads are deterministic)")
	seconds := flag.Int("seconds", 40, "measuring time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an added traced run")
	root := flag.String("root", ".", "repository checkout")
	out := flag.String("out", ".bench_build", "directory holding the gmacbench binary; span dumps go here")
	pass := flag.Bool("pass", false, "run one pass in this process and print its report (internal)")
	bench := flag.String("bench", "", "with -pass: the Parboil benchmark of paper-eval to run (internal)")
	flag.Parse()

	known := false
	for _, n := range workloadNames {
		known = known || n == *name
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *pass {
		spans := ""
		if *trace == 1 {
			spans = filepath.Join(*out, "spans-"+strings.Trim(*name+"-"+*bench, "-")+".csv")
		}
		rep := runPass(*name, *bench, *seed, spans)
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
		return
	}

	h, err := hostInfo(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host: %s\n", hostLine)
	if *name == "host-lanes" {
		if _, err := os.Stat(filepath.Join(*out, "gmacbench")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: host-lanes needs the gmacbench binary:", err)
			os.Exit(1)
		}
	}
	budget := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(budget))
	defer cancel()
	r := measureRun(ctx, runner{name: *name, seed: *seed, root: *root, out: *out}, budget, *trace == 1)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// paperEvalSkip is the Parboil benchmark paper-eval leaves out. Its
// gmac-batch cell alone is
// about half the sweep's host time, nearly all of it memmove of whole
// objects at every call, and its pass-to-pass spread on a shared VM
// (±20%, against ±6% for the other six together) set the sweep's.
const paperEvalSkip = "pns"

// runner starts the processes that run passes.
type runner struct {
	name string
	seed uint64
	root string
	out  string
}

// pass runs one pass in fresh processes: gmacbench for host-lanes, one
// perfbench child per Parboil benchmark for paper-eval, and one perfbench
// child for the other workloads.
func (r runner) pass(ctx context.Context, traced bool) (passReport, error) {
	switch r.name {
	case "host-lanes":
		return hostLanesPass(ctx, filepath.Join(r.out, "gmacbench"), r.root)
	case "paper-eval":
		var rep passReport
		for _, b := range workloads.Parboil() {
			if b.Name() == paperEvalSkip {
				continue
			}
			part, err := r.child(ctx, traced, b.Name())
			rep.merge(part)
			if err != nil {
				return rep, err
			}
		}
		return rep, nil
	}
	return r.child(ctx, traced, "")
}

// child runs one pass, or the part of a paper-eval pass for one
// benchmark, in a perfbench child process.
func (r runner) child(ctx context.Context, traced bool, bench string) (passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return passReport{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-pass", "-workload", r.name, "-bench", bench,
		"-seed", strconv.FormatUint(r.seed, 10), "-trace", trace, "-root", r.root, "-out", r.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return passReport{Attempted: 1, Failed: 1}, fmt.Errorf("pass process: %w", err)
	}
	var rep passReport
	if err := json.Unmarshal(lastLine(stdout), &rep); err != nil {
		return passReport{Attempted: 1, Failed: 1}, fmt.Errorf("pass report: %w", err)
	}
	rep.PeakRSS = maxRSS(cmd.ProcessState)
	if rep.Error != "" {
		return rep, errors.New(rep.Error)
	}
	return rep, nil
}

// merge adds the part of a pass that ran in another process. Times and
// totals add up; the peak resident set is the largest part's.
func (p *passReport) merge(o passReport) {
	p.Setup += o.Setup
	p.Wall += o.Wall
	p.PeakRSS = max(p.PeakRSS, o.PeakRSS)
	p.CPU += o.CPU
	p.Sim.add(o.Sim, 1)
	p.Go.AllocBytes += o.Go.AllocBytes
	p.Go.Mallocs += o.Go.Mallocs
	p.Go.GCCycles += o.Go.GCCycles
	p.Go.GCPause += o.Go.GCPause
	p.Go.HeapPeak = max(p.Go.HeapPeak, o.Go.HeapPeak)
	if o.Spans != nil {
		if p.Spans == nil {
			p.Spans = o.Spans
		} else {
			p.Spans.merge(o.Spans)
		}
	}
	p.Attempted += o.Attempted
	p.Failed += o.Failed
}

func lastLine(b []byte) []byte {
	s := strings.TrimRight(string(b), "\n")
	return []byte(s[strings.LastIndexByte(s, '\n')+1:])
}

// maxRSS returns a finished process's peak resident set in MiB.
func maxRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// measureRun spends budget on passes and turns them into a result. A
// traced run gives half the budget to untraced passes (for counts and the
// tracing overhead) and half to traced ones.
func measureRun(ctx context.Context, r runner, budget time.Duration, traced bool) result {
	var tl tally
	plainBudget := budget
	inProcess := r.name != "host-lanes"
	if traced && inProcess {
		plainBudget = budget / 2
	}
	plain, err := measure(ctx, r, plainBudget, false, &tl)
	var spanned []passReport
	if traced && inProcess && err == nil {
		spanned, err = measure(ctx, r, budget-plainBudget, true, &tl)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.name, err)
		tl.attempt(false)
	}
	// Simulated totals are a pure function of the workload and seed: every
	// pass, traced or not, must repeat the first exactly.
	for _, p := range append(plain[min(1, len(plain)):], spanned...) {
		if !tl.check(p.Sim == plain[0].Sim) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: simulated totals differ between passes\n", r.name)
		}
	}
	res := result{Metrics: map[string]metric{}}
	if len(plain) > 0 {
		if traced {
			perLayer(res.Metrics, plain, spanned, &tl)
		} else {
			endToEnd(res.Metrics, plain)
		}
	}
	res.Attempted, res.Failed = tl.attempted, tl.failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res
}

// measure repeats passes until starting another would overrun budget,
// counting each pass's operations into tl.
func measure(ctx context.Context, r runner, budget time.Duration, traced bool, tl *tally) ([]passReport, error) {
	var out []passReport
	start := time.Now()
	var longest time.Duration
	for len(out) == 0 || time.Since(start)+longest <= budget {
		p0 := time.Now()
		rep, err := r.pass(ctx, traced)
		tl.attempted += rep.Attempted
		tl.failed += rep.Failed
		if err != nil {
			return out, err
		}
		out = append(out, rep)
		longest = max(longest, time.Since(p0))
		fmt.Fprintf(os.Stderr, "pass %d (traced=%t): setup %.3fs wall %.3fs peak RSS %.0f MiB\n",
			len(out), traced, rep.Setup, rep.Wall, rep.PeakRSS)
	}
	return out, nil
}
