package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"mlperf/internal/sweep"
)

func TestTail(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		wantQ, v float64
		beyond   int
		ok       bool
		note     string
	}{
		{n: 10000, wantQ: 0.99, v: 9900, beyond: 100, ok: true, note: "p99 has 100 beyond"},
		{n: 1000, wantQ: 0.99, v: 990, beyond: 10, ok: true, note: "p99 has exactly 10 beyond"},
		{n: 500, wantQ: 0.98, v: 490, beyond: 10, ok: true, note: "p99 would leave 5: falls back to p98"},
		{n: 11, wantQ: 1.0 / 11, v: 1, beyond: 10, ok: true, note: "only the minimum qualifies"},
		{n: 10, wantQ: 0.1, v: 1, beyond: 9, ok: false, note: "too few samples"},
	} {
		q, v, beyond, ok := tail(ramp(tc.n), 0.99)
		if q != tc.wantQ || v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d (%s): tail = q %v v %v beyond %d ok %v, want q %v v %v beyond %d ok %v",
				tc.n, tc.note, q, v, beyond, ok, tc.wantQ, tc.v, tc.beyond, tc.ok)
		}
	}
	if q, _, _, ok := tail(nil, 0.99); ok || q != 0 {
		t.Errorf("empty sample: q %v ok %v", q, ok)
	}
	// Float error must not push an exact rank up: 0.99*100 is 99.00000000000001.
	if got := quantile(ramp(100), 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(ramp(4), 0.5); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", got)
	}
}

func TestSteadySlices(t *testing.T) {
	// Ten slices of 250 ms; the process ran 2 CPU-seconds per second in
	// eight of them and was starved to 1.2 and 0.4 in two.
	var slices []slice
	for i, busy := range []float64{2, 2, 1.2, 2, 2, 0.4, 2, 2, 1.9, 1.7} {
		d := 250 * time.Millisecond
		slices = append(slices, slice{dur: d, n: i, u: usage{cpu: time.Duration(busy * float64(d))}})
	}
	var kept []int
	for _, sl := range steadySlices(slices) {
		kept = append(kept, sl.n)
	}
	if want := []int{0, 1, 3, 4, 6, 7, 8, 9}; !reflect.DeepEqual(kept, want) {
		t.Errorf("steady slices %v, want %v", kept, want)
	}
	// A run slowed evenly keeps every slice: only the run's own best
	// sets the floor.
	for i := range slices {
		slices[i].u.cpu = slices[0].u.cpu / 3
	}
	if got := len(steadySlices(slices)); got != len(slices) {
		t.Errorf("evenly slowed run: %d of %d slices steady", got, len(slices))
	}
}

// draw returns the first n requests of a workload's sequence.
func draw(t *testing.T, name string, seed int64, n int) []request {
	t.Helper()
	sp, err := newSpec(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]request, n)
	for i := range out {
		out[i] = sp.gen.next()
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := draw(t, name, 7, 500), draw(t, name, 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different sequences", name)
		}
		if c := draw(t, name, 8, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", name)
		}
	}
}

func TestColdCellsNeverRepeat(t *testing.T) {
	const n = 20000
	seen := map[sweep.CellKey]bool{}
	streams := 0
	for i, req := range draw(t, coldCells, 3, n) {
		if len(req.cells) != 1 {
			t.Fatalf("request %d has %d cells, want 1", i, len(req.cells))
		}
		if seen[req.cells[0]] {
			t.Fatalf("request %d repeats cell %s", i, cellName(req.cells[0]))
		}
		seen[req.cells[0]] = true
		if req.kind == kindStream {
			streams++
		}
	}
	if streams != n/4 {
		t.Errorf("%d streamed requests, want %d", streams, n/4)
	}
}

func TestDiskReplayAsksEachPooledCellOncePerEpoch(t *testing.T) {
	sp, err := newSpec(diskReplay, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[sweep.CellKey]bool{}
	for _, k := range sp.pool {
		if pool[k] {
			t.Fatalf("pool holds %s twice", cellName(k))
		}
		pool[k] = true
	}
	if len(sp.pool) != 24*poolGrids {
		t.Fatalf("pool has %d cells, want %d", len(sp.pool), 24*poolGrids)
	}
	for epoch := range 3 {
		asked := map[sweep.CellKey]bool{}
		kinds := map[kind]int{}
		for range sp.epoch {
			req := sp.gen.next()
			kinds[req.kind]++
			if len(req.cells) != 24 {
				t.Fatalf("epoch %d: grid of %d cells, want 24", epoch, len(req.cells))
			}
			for _, k := range req.cells {
				if asked[k] || !pool[k] {
					t.Fatalf("epoch %d: cell %s asked twice or not pooled", epoch, cellName(k))
				}
				asked[k] = true
			}
		}
		if len(asked) != len(pool) {
			t.Errorf("epoch %d asked %d of %d pooled cells", epoch, len(asked), len(pool))
		}
		if kinds[kindStream] != poolGrids/2 || kinds[kindSweep] != poolGrids/2 {
			t.Errorf("epoch %d: %v, want half streamed and half unary", epoch, kinds)
		}
	}
}

func TestHotMixDrawsFromItsWarmSet(t *testing.T) {
	sp, err := newSpec(hotMix, 9)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, req := range sp.warm {
		warm[req.uri] = true
	}
	kinds := map[kind]int{}
	for i := range 4000 {
		req := sp.gen.next()
		if !warm[req.uri] {
			t.Fatalf("request %d (%s) was not warmed", i, req.uri)
		}
		kinds[req.kind]++
	}
	var got []int
	for _, n := range kinds {
		got = append(got, n)
	}
	sort.Ints(got)
	if len(got) != 3 || got[0] < 800 || kinds[kindSimulate] < 1800 {
		t.Errorf("mix %v, want about half simulate and a quarter each sweep and stream", kinds)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, through
// all the correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ev, err := evaluate(name, 1, 0.3, true, 2, &scratch{root: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			correct, attempted, failed := ev.verdict()
			if !correct || failed != 0 || attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed; problems %v %v",
					correct, failed, attempted, ev.plain.problems, ev.traced.problems)
			}
			if len(ev.plain.setups) != 2 {
				t.Errorf("%d set-ups, want 2", len(ev.plain.setups))
			}
			layer := map[string]float64{}
			for _, m := range perLayer(ev.traced, ev.plain) {
				layer[m.Name] = m.Value
			}
			for _, m := range endToEnd(ev.plain) {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
			switch name {
			case hotMix:
				if layer["cas.puts_per_req"] != 0 || layer["sweep.mem_hit_frac"] != 1 {
					t.Errorf("hot-mix: puts/req %v, mem hit frac %v; want 0 and 1",
						layer["cas.puts_per_req"], layer["sweep.mem_hit_frac"])
				}
			case coldCells:
				if layer["cas.puts_per_req"] != 1 || layer["sweep.sims_per_req"] != 1 {
					t.Errorf("cold-cells: puts/req %v, sims/req %v; want 1 and 1",
						layer["cas.puts_per_req"], layer["sweep.sims_per_req"])
				}
			case diskReplay:
				if layer["sweep.sims_per_req"] != 0 || layer["sweep.disk_hit_frac"] != 1 {
					t.Errorf("disk-replay: sims/req %v, disk hit frac %v; want 0 and 1",
						layer["sweep.sims_per_req"], layer["sweep.disk_hit_frac"])
				}
			}
		})
	}
}
