// Command servebench is the end-to-end serving benchmark. It boots a
// front tier over two backends in this process, on loopback listeners
// sharing one fresh cache dir, drives one seeded closed-loop workload
// through the front with two clients, checks every response, and prints
// the result as one JSON line:
//
//	servebench --workload hot-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run.
// --trace 1 splits --seconds between an untraced and a traced run over
// the same seed and reports the per-layer metrics of the traced one,
// plus the tracing overhead between the two. --report runs both for every workload (or
// the one named) and prints every metric by name with its unit.
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"syscall"
)

// setups is how many times an untraced run sets its workload up from
// scratch; setup_s is their median.
const setups = 15

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the request sequence is generated from")
	seconds := flag.Float64("seconds", 20, "timed closed-loop seconds per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	report := flag.Bool("report", false, "run untraced and traced and print every metric of every workload (or of --workload)")
	workdir := flag.String("workdir", ".bench_build/runs", "directory for the runs' cache dirs")
	flag.Parse()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	sc := &scratch{root: *workdir}
	var code int
	if *report {
		code = runReport(*name, *seed, *seconds, sc)
	} else {
		code = runOne(*name, *seed, *seconds, *trace, sc)
	}
	if err := sc.removeAll(); err != nil {
		logf("cleanup: %v", err)
	}
	// Write the deletions back now. ext4 without a journal will not reuse
	// a deleted inode for a minute, or for six while its inode table
	// block is still dirty, and skips each such inode one by one when
	// allocating: the next run's cache writes would pay for this run's
	// cleanup for minutes.
	syscall.Sync()
	os.Exit(code)
}

// scratch hands out fresh cache dirs, each a direct child of root, and
// removes them all when the run ends.
type scratch struct {
	root string
	dirs []string
}

func (s *scratch) dir() (string, error) {
	d, err := os.MkdirTemp(s.root, "cache-")
	if err == nil {
		s.dirs = append(s.dirs, d)
	}
	return d, err
}

func (s *scratch) removeAll() error {
	var first error
	for _, d := range s.dirs {
		if err := os.RemoveAll(d); err != nil && first == nil {
			first = err
		}
	}
	s.dirs = nil
	return first
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// evaluation is one workload measured: an untraced pass, and a traced
// pass over the same seed when layers were asked for.
type evaluation struct {
	name          string
	plain, traced *passResult
}

func evaluate(name string, seed int64, seconds float64, layers bool, setupRuns int, sc *scratch) (*evaluation, error) {
	sp, err := newSpec(name, seed)
	if err != nil {
		return nil, err
	}
	ev := &evaluation{name: name}
	if ev.plain, err = runPass(sp, seconds, setupRuns, nil, sc); err != nil {
		return nil, err
	}
	if layers {
		sp, _ = newSpec(name, seed) // a fresh generator; the name was valid above
		if ev.traced, err = runPass(sp, seconds, 1, newTracer(), sc); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

func (ev *evaluation) passes() []*passResult {
	if ev.traced == nil {
		return []*passResult{ev.plain}
	}
	return []*passResult{ev.plain, ev.traced}
}

// verdict totals the passes' requests and reports their problems.
func (ev *evaluation) verdict() (correct bool, attempted, failed int) {
	correct = true
	for _, p := range ev.passes() {
		attempted += p.attempted
		failed += p.failed
		for _, msg := range p.problems {
			logf("%s: FAIL %s", ev.name, msg)
			correct = false
		}
	}
	return correct && failed == 0 && attempted > 0, attempted, failed
}

// describe prints what the figures rest on: request and sample counts,
// cells per request, and the tail latency at the highest percentile up
// to p99 that leaves at least ten samples beyond it. The tail is
// reported here but not bounded: from run to run it spreads too widely
// to gate on.
func (ev *evaluation) describe() {
	t := timingsOf(ev.plain)
	fmt.Printf("%s: %d timed requests in %.1fs, %.2f cells/request, %d streams; "+
		"latency p%.4g %.4g ms over %d samples, %d beyond; %d set-ups; %d of %d slices steady\n",
		ev.name, t.n, ev.plain.timed.Seconds(), float64(t.cells)/float64(max(t.n, 1)), t.streams,
		100*t.tailQ, t.tailV, t.samples, t.beyond, len(ev.plain.setups),
		len(steadySlices(ev.plain.slices)), len(ev.plain.slices))
}

func runOne(name string, seed int64, seconds float64, trace int, sc *scratch) int {
	if trace != 0 && trace != 1 {
		logf("--trace must be 0 or 1")
		return 2
	}
	setupRuns := setups
	if trace == 1 {
		// The two passes share the run's time, so a traced run takes no
		// longer than an untraced one.
		setupRuns, seconds = 1, seconds/2
	}
	ev, err := evaluate(name, seed, seconds, trace == 1, setupRuns, sc)
	if err != nil {
		logf("%s: %v", name, err)
		return 1
	}
	ev.describe()
	res := result{Metrics: map[string]metric{}}
	res.Correct, res.Attempted, res.Failed = ev.verdict()
	figures := endToEnd(ev.plain)
	if trace == 1 {
		figures = perLayer(ev.traced, ev.plain)
	}
	for _, m := range figures {
		res.Metrics[m.Name] = m
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runReport is the one command that measures everything: per workload,
// an untraced run for the end-to-end metrics and a traced run for the
// per-layer ones, printed as a table.
func runReport(only string, seed int64, seconds float64, sc *scratch) int {
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	code := 0
	for _, name := range names {
		ev, err := evaluate(name, seed, seconds, true, setups, sc)
		if err != nil {
			logf("%s: %v", name, err)
			return 1
		}
		ev.describe()
		correct, attempted, failed := ev.verdict()
		if !correct {
			code = 1
		}
		fmt.Printf("%-12s %-26s %14s  %s\n", "workload", "metric", "value", "unit")
		row := func(m metric) { fmt.Printf("%-12s %-26s %14.6g  %s\n", name, m.Name, m.Value, m.Unit) }
		for _, m := range endToEnd(ev.plain) {
			row(m)
		}
		row(metric{"error_frac", ratio(float64(failed), float64(attempted)), "frac"})
		row(metric{"latency_p99_ms", timingsOf(ev.plain).tailV, "ms"})
		for _, m := range perLayer(ev.traced, ev.plain) {
			row(m)
		}
		fmt.Printf("%-12s %-26s %14v\n\n", name, "correct", correct)
	}
	return code
}
