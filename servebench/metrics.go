package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps float error (0.99*100 = 99.00000000000001) from
// bumping an exact rank up by one.
func rank(q float64, n int) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)-1e-9))))
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// tail picks the highest quantile at or below want that leaves at least
// minBeyond samples strictly beyond it, and returns that quantile, the
// sample at it and how many samples lie beyond. ok is false when there
// are too few samples for any quantile to qualify; the smallest sample
// is returned then.
func tail(sorted []float64, want float64) (q, v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0, false
	}
	r := max(1, min(rank(want, n), n-minBeyond))
	return float64(r) / float64(n), sorted[r-1], n - r, n-r >= minBeyond
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timings pools a pass's slices: request and sample counts, and the
// tail latency over every successful request.
type timings struct {
	n, cells     int
	samples      int     // latency samples
	streams      int     // successful streams
	tailQ, tailV float64 // the tail percentile (p99 or the highest one the sample supports) and its value
	beyond       int     // samples beyond tailQ
}

func timingsOf(p *passResult) timings {
	var t timings
	var lat []float64
	for _, sl := range p.slices {
		t.n += sl.n
		t.cells += sl.cells
		t.streams += len(sl.ttfr)
		lat = append(lat, sl.lat...)
	}
	sort.Float64s(lat)
	t.samples = len(lat)
	t.tailQ, t.tailV, t.beyond, _ = tail(lat, 0.99)
	return t
}

// steadyShare is the share of its busiest slices' CPU rate a slice must
// reach to count. The benchmark saturates the CPUs it is given, so a
// slice in which the process ran for markedly less CPU time per wall
// second than in its busiest ones is a slice in which the host took the
// CPUs away: hypervisor steal time, which getrusage does not count, or
// another process. Its throughput and latency measure the host, not the
// program, and the share of such slices varies from run to run.
const steadyShare = 0.8

// busy is the slice's CPU seconds per wall second.
func (sl slice) busy() float64 { return sl.u.cpu.Seconds() / sl.dur.Seconds() }

// steadySlices returns the slices whose busy() reaches steadyShare of
// the 90th percentile of busy() over all of them. A change that makes
// the program itself wait more lowers every slice alike and still
// shows; only slices far below the run's own best are set aside.
func steadySlices(slices []slice) []slice {
	b := make([]float64, len(slices))
	for i, sl := range slices {
		b[i] = sl.busy()
	}
	sort.Float64s(b)
	floor := steadyShare * quantile(b, 0.9)
	var out []slice
	for _, sl := range slices {
		if sl.busy() >= floor {
			out = append(out, sl)
		}
	}
	return out
}

// overSlices is the median over a pass's steady slices of f, skipping
// the slices f has no value for.
func overSlices(p *passResult, f func(sl slice) (float64, bool)) float64 {
	var v []float64
	for _, sl := range steadySlices(p.slices) {
		if x, ok := f(sl); ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// endToEnd derives the user-visible metrics of an untraced pass. Rates,
// per-request costs and medians are taken per slice and then the median
// over the steady slices.
func endToEnd(p *passResult) []metric {
	return []metric{
		{"setup_s", median(p.setups), "s"},
		{"throughput_rps", overSlices(p, func(sl slice) (float64, bool) {
			return float64(sl.ok) / sl.dur.Seconds(), true
		}), "1/s"},
		{"latency_p50_ms", overSlices(p, func(sl slice) (float64, bool) {
			return median(sl.lat), len(sl.lat) > 0
		}), "ms"},
		{"stream_ttfr_p50_ms", overSlices(p, func(sl slice) (float64, bool) {
			return median(sl.ttfr), len(sl.ttfr) > 0
		}), "ms"},
		{"cpu_ms_per_req", overSlices(p, func(sl slice) (float64, bool) {
			return ms(sl.u.cpu) / float64(sl.n), true
		}), "ms"},
		{"alloc_kb_per_req", overSlices(p, func(sl slice) (float64, bool) {
			return float64(sl.u.allocBytes) / 1024 / float64(sl.n), true
		}), "KiB"},
	}
}

// perLayer derives the layer metrics of a traced pass; base is the
// untraced pass over the same seed, for the tracing overhead.
func perLayer(p, base *passResult) []metric {
	n := float64(max(timingsOf(p).n, 1))
	l := p.layers
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	gets, puts := float64(l.gets), float64(l.puts)
	baseCPU := ms(base.usage.cpu) / float64(max(timingsOf(base).n, 1))
	return []metric{
		{"front.self_us_per_req", us(l.frontNs-l.hopNs) / n, "us"},
		{"front.hop_us_per_req", us(l.hopNs) / n, "us"},
		{"front.fanout_per_req", float64(p.front.fanouts) / n, "count"},
		{"front.failovers", float64(p.front.failovers), "count"},
		{"serve.handler_us_per_req", us(l.serveNs) / n, "us"},
		{"serve.resp_bytes_per_req", float64(l.serveByte) / n, "B"},
		{"serve.coalesced_frac", ratio(float64(p.serve.coalesced), float64(p.serve.requests)), "frac"},
		{"serve.shed_frac", ratio(float64(p.serve.shed), float64(p.serve.requests)), "frac"},
		{"sweep.mem_hit_frac", ratio(float64(p.cache.Hits), float64(p.cache.Hits+p.cache.Misses)), "frac"},
		{"sweep.disk_hit_frac", ratio(float64(p.cache.Disk.Hits), float64(p.cache.Disk.Hits+p.cache.Disk.Misses)), "frac"},
		{"sweep.sims_per_req", float64(p.cache.Simulations) / n, "count"},
		{"cas.get_us", ratio(us(l.getNs), gets), "us"},
		{"cas.put_us", ratio(us(l.putNs), puts), "us"},
		{"cas.gets_per_req", gets / n, "count"},
		{"cas.puts_per_req", puts / n, "count"},
		{"cas.get_hit_frac", ratio(float64(l.getHits), gets), "frac"},
		{"cas.bytes_per_entry", p.entryB, "B"},
		{"sim.us_per_cell", p.simUs, "us"},
		{"sim.allocs_per_cell", p.simAlloc, "count"},
		{"gc.cpu_frac", ratio(p.usage.gcCPU, p.usage.cpu.Seconds()), "frac"},
		{"rss_peak_mb", p.rssPeakMB, "MiB"},
		{"trace.overhead_frac", ratio(ms(p.usage.cpu)/n, baseCPU) - 1, "frac"},
	}
}
