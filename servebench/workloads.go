package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"mlperf/internal/experiments"
	"mlperf/internal/hw"
	"mlperf/internal/sweep"
	"mlperf/internal/workload"
)

// kind is the endpoint a request targets.
type kind int

const (
	kindSimulate kind = iota // GET /v1/simulate: one cell, unary JSON
	kindSweep                // GET /v1/sweep: a grid, unary JSON
	kindStream               // GET /v1/sweep/stream: a grid, NDJSON frames
)

func (k kind) String() string {
	return [...]string{"simulate", "sweep", "stream"}[k]
}

// request is one generated client request: the URI sent to the front
// and the cells the response must carry, in grid order.
type request struct {
	kind  kind
	uri   string
	cells []sweep.CellKey
}

// generator yields a workload's request sequence. The sequence is a
// pure function of the seed: the i-th call returns the same request
// whichever client makes it.
type generator interface {
	next() request
}

// Workload names, as passed to --workload.
const (
	hotMix     = "hot-mix"
	coldCells  = "cold-cells"
	diskReplay = "disk-replay"
)

var workloadNames = []string{hotMix, coldCells, diskReplay}

// spec is everything the runner needs to know about one workload.
type spec struct {
	gen generator
	// warm is sent once through every fresh cluster before timing, so
	// the timed requests find their cells in the memory tier.
	warm []request
	// pool is staged on disk through a separate engine before the first
	// cluster boots; the timed requests then replay it from the CAS.
	pool []sweep.CellKey
	// epoch is how many requests one cluster serves before the runner
	// boots a fresh one over the same cache dir (0 = one cluster for the
	// whole run). It keeps every backend from being asked for a pooled
	// cell twice.
	epoch int
}

// newSpec builds the named workload for a seed.
func newSpec(name string, seed int64) (*spec, error) {
	sp := newSpace()
	switch name {
	case hotMix:
		return newHotMix(sp, seed), nil
	case coldCells:
		return &spec{gen: newColdGen(sp, seed)}, nil
	case diskReplay:
		return newDiskReplay(sp, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// space is the cell space the generators draw from: every MLPerf
// benchmark, every Table III system plus the DGX-1, each system's
// feasible power-of-two GPU counts, per-GPU batches 1..maxBatch and the
// two explicit precision policies. Every cell of it simulates without
// error.
type space struct {
	benches []string
	systems []*hw.System
}

const maxBatch = 1024

var precisions = []string{"fp32", "mixed"}

func newSpace() *space {
	sp := &space{}
	for _, b := range workload.MLPerfSuite() {
		sp.benches = append(sp.benches, b.Abbrev)
	}
	sp.systems = append(hw.AllSystems(), hw.DGX1())
	return sp
}

// gpuChoices lists the GPU counts a system can run.
func gpuChoices(sys *hw.System) []int {
	var out []int
	for g := 1; g <= sys.GPUCount; g *= 2 {
		out = append(out, g)
	}
	return out
}

// cell draws one random cell.
func (sp *space) cell(rng *rand.Rand) sweep.Grid {
	sys := sp.systems[rng.Intn(len(sp.systems))]
	gpus := gpuChoices(sys)
	return sweep.Grid{
		Benchmarks:  []string{sp.benches[rng.Intn(len(sp.benches))]},
		Systems:     []string{sys.Name},
		GPUCounts:   []int{gpus[rng.Intn(len(gpus))]},
		BatchPerGPU: []int{1 + rng.Intn(maxBatch)},
		Precisions:  []string{precisions[rng.Intn(len(precisions))]},
	}
}

// gridRequest renders a grid as a request on endpoint k. Single-cell
// simulate requests use /v1/simulate's parameters; grids use the sweep
// endpoints' comma lists.
func gridRequest(k kind, g sweep.Grid) request {
	cells, err := g.Cells()
	if err != nil {
		// Grids are drawn from the feasible space; an error is a bug here.
		panic(fmt.Sprintf("servebench: infeasible grid %+v: %v", g, err))
	}
	q := url.Values{}
	path := "/v1/sweep"
	if k == kindSimulate {
		path = "/v1/simulate"
		q.Set("benchmark", g.Benchmarks[0])
		q.Set("system", g.Systems[0])
		q.Set("gpus", strconv.Itoa(g.GPUCounts[0]))
		q.Set("batch", strconv.Itoa(g.BatchPerGPU[0]))
		q.Set("precision", g.Precisions[0])
	} else {
		if k == kindStream {
			path = "/v1/sweep/stream"
		}
		q.Set("benchmarks", strings.Join(g.Benchmarks, ","))
		q.Set("systems", strings.Join(g.Systems, ","))
		q.Set("gpus", joinInts(g.GPUCounts))
		q.Set("batches", joinInts(g.BatchPerGPU))
		q.Set("precisions", strings.Join(g.Precisions, ","))
	}
	return request{kind: k, uri: path + "?" + q.Encode(), cells: cells}
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, n := range v {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

// ---- hot-mix ----

// Hot-set shape: hotCells single cells and hotGrids grids of
// hotGridBenches benchmarks x 2 GPU counts on one system. Each grid is
// served both unary and streamed. The set is large enough that the share
// of grids the front splits across both backends, rather than sending
// whole to one, varies little from seed to seed.
const (
	hotCells       = 64
	hotGrids       = 32
	hotGridBenches = 3
)

// hotGen draws requests from a fixed hot set: half /v1/simulate, a
// quarter /v1/sweep and a quarter /v1/sweep/stream.
type hotGen struct {
	rng   *rand.Rand
	cells []request
	grids []request
	strms []request
}

func newHotMix(sp *space, seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	g := &hotGen{rng: rng}
	for range hotCells {
		g.cells = append(g.cells, gridRequest(kindSimulate, sp.cell(rng)))
	}
	for range hotGrids {
		grid := sp.cell(rng)
		perm := rng.Perm(len(sp.benches))[:hotGridBenches]
		grid.Benchmarks = nil
		for _, i := range perm {
			grid.Benchmarks = append(grid.Benchmarks, sp.benches[i])
		}
		// Two GPU counts every system has (all have at least four).
		lo := 1 << rng.Intn(2)
		grid.GPUCounts = []int{lo, 2 * lo}
		g.grids = append(g.grids, gridRequest(kindSweep, grid))
		g.strms = append(g.strms, gridRequest(kindStream, grid))
	}
	warm := append(append(append([]request(nil), g.cells...), g.grids...), g.strms...)
	return &spec{gen: g, warm: warm}
}

func (g *hotGen) next() request {
	switch r := g.rng.Intn(4); {
	case r < 2:
		return g.cells[g.rng.Intn(len(g.cells))]
	case r == 2:
		return g.grids[g.rng.Intn(len(g.grids))]
	default:
		return g.strms[g.rng.Intn(len(g.strms))]
	}
}

// ---- cold-cells ----

// coldGen yields never-seen cells: every fourth request is a
// single-cell /v1/sweep/stream (so time to first record is measured on
// a cold cell too), the rest are /v1/simulate.
type coldGen struct {
	sp   *space
	rng  *rand.Rand
	seen map[sweep.CellKey]bool
	n    int
}

func newColdGen(sp *space, seed int64) *coldGen {
	return &coldGen{sp: sp, rng: rand.New(rand.NewSource(seed)), seen: map[sweep.CellKey]bool{}}
}

func (g *coldGen) next() request {
	k := kindSimulate
	if g.n%4 == 3 {
		k = kindStream
	}
	g.n++
	for {
		grid := g.sp.cell(g.rng)
		req := gridRequest(k, grid)
		if !g.seen[req.cells[0]] {
			g.seen[req.cells[0]] = true
			return req
		}
	}
}

// ---- disk-replay ----

// poolGrids is how many 24-cell grids disk-replay stages on disk; one
// cluster lifetime replays each of them exactly once.
const poolGrids = 50

// diskGen replays the pooled grids: each epoch is a fresh seeded order
// of the whole pool, half of it streamed and half unary.
type diskGen struct {
	rng   *rand.Rand
	grids []sweep.Grid
	order []int
	pos   int
}

// newDiskReplay draws poolGrids distinct Table-IV-shaped grids: the six
// Table IV benchmarks x 1/2/4/8 GPUs on an 8-GPU system, at one batch
// and precision per grid.
func newDiskReplay(sp *space, seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	var eight []string
	for _, s := range sp.systems {
		if s.GPUCount >= 8 {
			eight = append(eight, s.Name)
		}
	}
	g := &diskGen{rng: rng}
	used := map[string]bool{}
	var pool []sweep.CellKey
	for len(g.grids) < poolGrids {
		grid := sweep.Grid{
			Benchmarks:  experiments.Table4Benches,
			Systems:     []string{eight[rng.Intn(len(eight))]},
			GPUCounts:   []int{1, 2, 4, 8},
			BatchPerGPU: []int{1 + rng.Intn(maxBatch)},
			Precisions:  []string{precisions[rng.Intn(len(precisions))]},
		}
		id := fmt.Sprint(grid.Systems, grid.BatchPerGPU, grid.Precisions)
		if used[id] {
			continue
		}
		used[id] = true
		g.grids = append(g.grids, grid)
		cells, err := grid.Cells()
		if err != nil {
			panic(fmt.Sprintf("servebench: infeasible grid %+v: %v", grid, err))
		}
		pool = append(pool, cells...)
	}
	return &spec{gen: g, pool: pool, epoch: poolGrids}
}

func (g *diskGen) next() request {
	if g.pos == len(g.order) {
		g.order, g.pos = g.rng.Perm(len(g.grids)), 0
	}
	k := kindSweep
	if g.pos%2 == 1 {
		k = kindStream
	}
	req := gridRequest(k, g.grids[g.order[g.pos]])
	g.pos++
	return req
}
