package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mlperf/internal/sweep"
)

// passResult is what one pass over a workload measured.
type passResult struct {
	setups    []float64 // seconds per set-up: staging, boot and warm-up
	timed     time.Duration
	slices    []slice
	attempted int
	failed    int
	problems  []string // failed checks, for stderr

	usage     usage // summed over the timed windows
	rssPeakMB float64

	front    frontDelta
	serve    serveDelta
	cache    sweep.CacheStats // engine counter deltas, both backends
	layers   layerCounts
	simUs    float64 // sim replay: wall µs per cell
	simAlloc float64 // sim replay: heap objects per cell
	entryB   float64 // mean CAS entry size on disk
}

// frontDelta and serveDelta are the Snapshot counters the per-layer
// metrics use, differenced over the timed windows.
type frontDelta struct{ fanouts, failovers int64 }
type serveDelta struct{ requests, coalesced, shed int64 }

// usage is process resource use at one instant, or a difference.
type usage struct {
	cpu        time.Duration // user + system
	gcCPU      float64       // seconds of GC CPU time
	allocBytes uint64
	allocObjs  uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		allocBytes: s[1].Value.Uint64(),
		allocObjs:  s[2].Value.Uint64(),
	}
}

func (a usage) sub(b usage) usage {
	return usage{a.cpu - b.cpu, a.gcCPU - b.gcCPU, a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs}
}

func (a usage) add(b usage) usage {
	return usage{a.cpu + b.cpu, a.gcCPU + b.gcCPU, a.allocBytes + b.allocBytes, a.allocObjs + b.allocObjs}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runner drives one pass: set-up, ramp, timed windows, checks.
type runner struct {
	spec    *spec
	tr      *tracer // nil = untraced
	scratch *scratch
	client  *http.Client
	check   *checker
	res     *passResult
	cache   string   // the cache dir of the live set-up
	c       *cluster // the live cluster, nil between epochs
	served  int      // requests the live cluster has been sent
	sims    int64    // simulations over every backend lifetime
	nextID  int64    // last request id; these count up from 1
	warmID  int64    // last warm-up request id; these count down from -1
}

// requestTimeout bounds one client request; every request of every
// workload completes in milliseconds.
const requestTimeout = 30 * time.Second

// ramp is how long the workload runs untimed before the timed windows,
// so that connections, the Go heap and the CPU caches are warm when
// timing starts.
const ramp = time.Second

// runPass sets the workload up `setups` times (keeping the last), runs
// it for the ramp, then measures it for `seconds` of closed-loop
// traffic and checks it.
func runPass(sp *spec, seconds float64, setups int, tr *tracer, sc *scratch) (*passResult, error) {
	r := &runner{
		spec:    sp,
		tr:      tr,
		scratch: sc,
		client: &http.Client{
			Transport: http.DefaultTransport.(*http.Transport).Clone(),
			// A hung request fails instead of hanging the run.
			Timeout: requestTimeout,
		},
		check: newChecker(),
		res:   &passResult{},
	}
	defer r.client.CloseIdleConnections()
	defer func() {
		if r.c != nil {
			r.retire()
		}
	}()
	for range setups {
		if r.c != nil {
			r.retire()
		}
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		r.res.setups = append(r.res.setups, time.Since(start).Seconds())
	}
	if err := r.drive(ramp, false); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := r.drive(time.Duration(seconds*float64(time.Second)), true); err != nil {
		return nil, err
	}
	if r.c != nil {
		r.retire()
	}
	r.res.rssPeakMB = maxRSSMB()
	if sp.pool != nil && r.sims != 0 {
		r.problem("disk-replay simulated %d cells; every lookup should be a disk hit", r.sims)
	}

	if tr != nil {
		var err error
		if r.res.entryB, err = meanEntryBytes(r.cache); err != nil {
			return nil, err
		}
		r.simReplay()
	}
	if err := r.check.verify(); err != nil {
		return nil, err
	}
	var reasons []string
	r.res.failed, reasons = r.check.failures(5)
	r.res.problems = append(r.res.problems, reasons...)
	return r.res, nil
}

// drive runs closed-loop windows for budget, booting a fresh cluster
// over the same cache dir whenever an epoch is used up. Only recorded
// windows count towards the metrics.
func (r *runner) drive(budget time.Duration, record bool) error {
	var elapsed time.Duration
	for elapsed < budget {
		if r.c == nil {
			if err := r.boot(); err != nil {
				return err
			}
		}
		wall, exhausted := r.window(budget-elapsed, record)
		elapsed += wall
		if exhausted {
			r.retire()
		}
	}
	if record {
		r.res.timed = elapsed
	}
	return nil
}

func (r *runner) problem(format string, args ...any) {
	r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
}

// setup stages the workload's inputs in a fresh cache dir and boots
// the cluster the first timed request will reach.
func (r *runner) setup() error {
	cache, err := r.scratch.dir()
	if err != nil {
		return err
	}
	r.cache = cache
	if r.spec.pool != nil {
		// Staged through a separate engine, as a prior process would have
		// left them: the benchmark's backends never simulate these cells.
		ds, err := sweep.OpenDiskStore(cache)
		if err != nil {
			return err
		}
		eng := sweep.NewEngine(0)
		eng.SetStore(ds)
		if _, err := eng.Cells(r.spec.pool); err != nil {
			return fmt.Errorf("staging the disk pool: %w", err)
		}
	}
	return r.boot()
}

// boot starts a cluster over the live cache dir, waits for it and sends
// the warm-up requests.
func (r *runner) boot() error {
	c, err := boot(r.cache, r.tr)
	if err != nil {
		return err
	}
	r.c, r.served = c, 0
	if err := c.ready(r.client); err != nil {
		return err
	}
	cl := &client{http: r.client, check: r.check}
	for _, req := range r.spec.warm {
		// Warm-up requests are checked like timed ones, and their records
		// are the copies every timed response is compared with, so a
		// streamed grid must equal its unary twin byte for byte.
		r.warmID--
		if o := cl.do(c.url, r.warmID, req); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

// retire checks the live cluster's engine accounting and shuts it down.
func (r *runner) retire() {
	r.c.close()
	for i, b := range r.c.backends {
		st := b.Engine().Stats()
		if st.Simulations != st.Misses-st.Disk.Hits {
			r.problem("backend %d: Simulations %d != Misses %d - Disk.Hits %d",
				i, st.Simulations, st.Misses, st.Disk.Hits)
		}
		r.sims += st.Simulations
		if r.spec.pool != nil && st.Hits != 0 {
			r.problem("backend %d: %d memory-tier hits; disk-replay asks each pooled cell once per backend lifetime",
				i, st.Hits)
		}
	}
	r.c = nil
}

// sliceEvery is how often a window is cut into slices. The end-to-end
// rates and medians are medians over the steady slices (see
// steadySlices), so a disturbance that lasts a slice or two moves them
// little.
const sliceEvery = 250 * time.Millisecond

// mark is the process's usage at a slice boundary.
type mark struct {
	at time.Time
	u  usage
}

// slice is one stretch of a timed window.
type slice struct {
	dur       time.Duration
	u         usage
	n, ok     int       // requests completed, and completed without error
	cells     int       // cells those requests asked for
	lat, ttfr []float64 // ms, of the successful requests
}

// window runs the closed loop on c until budget elapses or, for an
// epoch workload, the cluster has served its epoch. It reports the
// window's wall time and whether the epoch is used up.
func (r *runner) window(budget time.Duration, record bool) (time.Duration, bool) {
	c := r.c
	var (
		mu    sync.Mutex
		taken int // requests this window has sent
		outs  = make([][]outcome, clients)
		wg    sync.WaitGroup
	)
	snap0 := c.snapshot()
	var lc0 layerCounts
	if r.tr != nil {
		lc0 = r.tr.counts()
		r.tr.timing.Store(record)
	}
	u0 := readUsage()
	start := time.Now()
	marks := []mark{{at: start, u: u0}}
	stop := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		t := time.NewTicker(sliceEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				marks = append(marks, mark{u: readUsage(), at: time.Now()})
			}
		}
	}()
	next := func() (int64, request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= budget || (r.spec.epoch > 0 && r.served == r.spec.epoch) {
			return 0, request{}, false
		}
		taken++
		r.served++
		r.nextID++
		return r.nextID, r.spec.gen.next(), true
	}
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &client{http: r.client, check: r.check}
			for {
				id, req, ok := next()
				if !ok {
					return
				}
				o := cl.do(c.url, id, req)
				if o.err != nil {
					r.check.fail(id, o.err)
				}
				outs[i] = append(outs[i], o)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	sampling.Wait()
	u1 := readUsage()
	end := time.Now()
	wall := end.Sub(start)
	r.res.attempted += taken
	if r.tr != nil {
		r.tr.timing.Store(false)
	}
	// An epoch can span windows: the ramp's last cluster carries on into
	// the timed windows.
	exhausted := r.spec.epoch > 0 && r.served == r.spec.epoch
	if !record {
		return wall, exhausted
	}
	if r.tr != nil {
		r.res.layers = r.res.layers.add(r.tr.counts().sub(lc0))
	}
	r.res.usage = r.res.usage.add(u1.sub(u0))
	r.res.addSnapshots(snap0, c.snapshot())
	// A short last slice is folded into the one before it.
	if n := len(marks); n > 1 && end.Sub(marks[n-1].at) < sliceEvery/2 {
		marks = marks[:n-1]
	}
	marks = append(marks, mark{at: end, u: u1})
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	r.res.addSlices(marks, all)
	return wall, exhausted
}

// addSlices cuts a window's outcomes at its marks by completion time.
func (p *passResult) addSlices(marks []mark, outs []outcome) {
	sort.Slice(outs, func(i, j int) bool { return outs[i].end.Before(outs[j].end) })
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		sl := slice{dur: b.at.Sub(a.at), u: b.u.sub(a.u)}
		for len(outs) > 0 && (i == len(marks)-1 || !outs[0].end.After(b.at)) {
			o := outs[0]
			outs = outs[1:]
			sl.n++
			sl.cells += o.cells
			if o.err != nil {
				continue
			}
			sl.ok++
			sl.lat = append(sl.lat, ms(o.latency))
			if o.kind == kindStream {
				sl.ttfr = append(sl.ttfr, ms(o.ttfr))
			}
		}
		if sl.n > 0 {
			p.slices = append(p.slices, sl)
		}
	}
}

// addSnapshots accumulates the counter differences between two
// snapshots of one cluster.
func (p *passResult) addSnapshots(a, b snapshot) {
	p.front.fanouts += b.front.Fanouts - a.front.Fanouts
	p.front.failovers += b.front.Failovers - a.front.Failovers
	for i := range a.serve {
		sa, sb := a.serve[i], b.serve[i]
		p.serve.requests += sb.Requests - sa.Requests
		p.serve.coalesced += sb.Coalesced - sa.Coalesced
		p.serve.shed += sb.Shed - sa.Shed
		ca, cb := sa.Cache, sb.Cache
		p.cache.Hits += cb.Hits - ca.Hits
		p.cache.Misses += cb.Misses - ca.Misses
		p.cache.Disk.Hits += cb.Disk.Hits - ca.Disk.Hits
		p.cache.Disk.Misses += cb.Disk.Misses - ca.Disk.Misses
		p.cache.Simulations += cb.Simulations - ca.Simulations
	}
}

// simReplay re-runs the cells the pass simulated through a store-less
// single-worker engine, timing the simulator alone. A pass that
// simulated nothing replays the cells it requested instead, which
// prices what a miss would have cost.
func (r *runner) simReplay() {
	keys := r.tr.simulated()
	if len(keys) == 0 {
		keys = r.check.cellsReceived(simReplayCap)
	}
	if len(keys) == 0 {
		return
	}
	eng := sweep.NewEngine(1)
	u0 := readUsage()
	start := time.Now()
	for _, k := range keys {
		if _, err := eng.Cell(k); err != nil {
			r.problem("sim replay %s: %v", cellName(k), err)
		}
	}
	wall := time.Since(start)
	d := readUsage().sub(u0)
	r.res.simUs = float64(wall.Nanoseconds()) / 1e3 / float64(len(keys))
	r.res.simAlloc = float64(d.allocObjs) / float64(len(keys))
}

// meanEntryBytes is the mean size of the intact CAS entries under dir.
func meanEntryBytes(dir string) (float64, error) {
	var n, total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") {
			return nil // an in-flight temp file
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		total += info.Size()
		return nil
	})
	if err != nil || n == 0 {
		return 0, err
	}
	return float64(total) / float64(n), nil
}
