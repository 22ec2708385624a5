// Command mlperf-ablate runs the ablation studies of DESIGN.md: each
// isolates one modeling or system-design lever and quantifies its effect.
//
//	mlperf-ablate            all ablations
//	mlperf-ablate collective | overlap | batch | eligibility | ring | lanes
//	mlperf-ablate -workers 4 overlap
//
// The sweeps inside each ablation fan out on the sweep engine's worker
// pool; -workers bounds it (0 = GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"mlperf/internal/experiments"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
)

func main() {
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	engineFlags := sweep.RegisterCLIFlags(nil)
	sink := telecli.Register("mlperf-ablate", nil)
	flag.Parse()
	w, err := sweep.ValidateWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-ablate:", err)
		os.Exit(2)
	}
	sweep.Default.SetWorkers(w)
	if err := engineFlags.Apply(sweep.Default); err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-ablate:", err)
		os.Exit(2)
	}
	defer engineFlags.Close(sweep.Default)
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if reg := sink.Activate(); reg != nil {
		sweep.Default.SetTelemetry(reg)
		defer sweep.Default.SetTelemetry(nil)
		sink.Config("ablation", which)
		sink.Config("workers", strconv.Itoa(w))
		engineFlags.Record(sink.Config)
	}
	// Ctrl-C/SIGTERM: stop after the current ablation, flush whatever
	// cache traffic accumulated, exit 130.
	ctx, stop := telecli.InterruptContext()
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- run(which) }()
	var runErr error
	select {
	case runErr = <-errCh:
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "mlperf-ablate: interrupted")
		if sink.Enabled() {
			sweep.Default.Stats().FillManifest(sink.Manifest)
		}
		sink.MustFlush()
		os.Exit(130)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mlperf-ablate:", runErr)
		sink.MustFlush()
		os.Exit(1)
	}
	if sink.Enabled() {
		sweep.Default.Stats().FillManifest(sink.Manifest)
	}
	sink.MustFlush()
}

func run(which string) error {
	all := which == "all"
	if all || which == "collective" {
		rows, err := experiments.AblateCollectives()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderCollectiveAblation(rows))
	}
	if all || which == "overlap" {
		rows, err := experiments.AblateOverlap()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderOverlapAblation(rows))
	}
	if all || which == "batch" {
		rows, err := experiments.AblateBatch()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderBatchAblation(rows))
	}
	if all || which == "eligibility" {
		rows, err := experiments.AblateEligibility()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderEligibilityAblation(rows))
	}
	if all || which == "lanes" {
		rows, err := experiments.AblateLanes()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderLaneAblation(rows))
	}
	if all || which == "ring" {
		r, err := experiments.AblateRingSearch()
		if err != nil {
			return err
		}
		fmt.Println("Ablation — NCCL-style ring search on the C4140 (K) NVLink mesh")
		fmt.Printf("  naive gpu0-1-2-3 ring bottleneck : %.1f GB/s\n", r.NaiveGBs)
		fmt.Printf("  searched ring bottleneck         : %.1f GB/s\n", r.SearchedGBs)
		fmt.Printf("  search gain                      : %.2fx\n", r.SearchedGBs/r.NaiveGBs)
	}
	switch which {
	case "all", "collective", "overlap", "batch", "eligibility", "ring", "lanes":
		return nil
	}
	return fmt.Errorf("unknown ablation %q", which)
}
