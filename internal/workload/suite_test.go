package workload

import (
	"strings"
	"testing"

	"mlperf/internal/hw"
	"mlperf/internal/sim"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("%d benchmarks, want 13 (7 MLPerf + 2 DAWNBench + 4 DeepBench)", len(all))
	}
	counts := map[Suite]int{}
	for _, b := range all {
		counts[b.Suite]++
	}
	if counts[MLPerf] != 7 || counts[DAWNBench] != 2 || counts[DeepBench] != 4 {
		t.Errorf("suite counts = %v", counts)
	}
}

func TestTableIIMetadata(t *testing.T) {
	// Spot-check the Table II columns.
	cases := []struct {
		abbrev, domain, model, framework, submitter, target string
	}{
		{"MLPf_Res50_TF", "Image Classification", "ResNet-50", "TensorFlow", "Google", "Accuracy: 0.749"},
		{"MLPf_NCF_Py", "Recommendation", "Neural Collaborative Filtering", "PyTorch", "NVIDIA", "Hit rate @10: 0.635"},
		{"Dawn_DrQA_Py", "Question Answering", "DrQA", "PyTorch", "Yang et al.", "F1: 0.75"},
		{"Deep_Red_Cu", "Communication (AllReduce)", "nccl_single_all_reduce", "CUDA", "Baidu/NVIDIA", "n/a"},
	}
	for _, c := range cases {
		b, err := ByName(c.abbrev)
		if err != nil {
			t.Fatal(err)
		}
		if b.Domain != c.domain || b.ModelName != c.model || b.Framework != c.framework ||
			b.Submitter != c.submitter || b.QualityTarget != c.target {
			t.Errorf("%s metadata = %+v", c.abbrev, b)
		}
	}
}

func TestByNameShortForms(t *testing.T) {
	for _, name := range []string{"res50_tf", "RES50_MX", "ssd_py", "mrcnn_py",
		"xfmr_py", "gnmt_py", "ncf_py", "res18_py", "drqa_py",
		"gemm_cu", "conv_cu", "rnn_cu", "red_cu"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bert"); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "MLPf_Res50_TF") {
		t.Error("error should list available names")
	}
}

func TestEveryJobValid(t *testing.T) {
	for _, b := range All() {
		job := b.Job
		if err := job.Validate(); err != nil {
			t.Errorf("%s: %v", b.Abbrev, err)
		}
		if b.Job.Net == nil || b.Job.Data.TrainSamples <= 0 {
			t.Errorf("%s: incomplete job", b.Abbrev)
		}
	}
}

func TestReferenceJobsExistForTableIV(t *testing.T) {
	// Exactly the Table IV benchmarks carry a reference (P100) job.
	want := map[string]bool{
		"MLPf_Res50_TF": true, "MLPf_Res50_MX": true, "MLPf_SSD_Py": true,
		"MLPf_MRCNN_Py": true, "MLPf_XFMR_Py": true, "MLPf_NCF_Py": true,
		"MLPf_GNMT_Py": true, // GNMT has a reference too (not in Table IV)
	}
	for _, b := range All() {
		hasRef := b.RefJob.Net != nil
		if want[b.Abbrev] && !hasRef {
			t.Errorf("%s: missing reference job", b.Abbrev)
		}
		if !want[b.Abbrev] && hasRef && b.Suite != MLPerf {
			t.Errorf("%s: unexpected reference job", b.Abbrev)
		}
	}
}

func TestEveryBenchmarkSimulates(t *testing.T) {
	// Every registry entry must run on every system without error.
	for _, sys := range hw.AllSystems() {
		for _, b := range All() {
			res, err := sim.Run(sim.Config{System: sys, GPUCount: 1, Job: b.Job})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Abbrev, sys.Name, err)
			}
			if res.TimeToTrain <= 0 {
				t.Errorf("%s on %s: non-positive time-to-train", b.Abbrev, sys.Name)
			}
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("%d names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Error("Names() not sorted")
		}
	}
}

func TestCalibrationSanity(t *testing.T) {
	// Calibrated efficiencies must stay physical: no fraction above 1,
	// overlap within [0,1], positive batch and epochs.
	for _, b := range All() {
		j := b.Job
		p := j.Precision
		for name, v := range map[string]float64{
			"EligibleFrac": p.EligibleFrac, "MathEff": p.MathEff,
			"TensorEff": p.TensorEff, "MemEff": p.MemEff,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: %s = %v outside [0,1]", b.Abbrev, name, v)
			}
		}
		if j.OverlapComm < 0 || j.OverlapComm > 1 {
			t.Errorf("%s: overlap %v", b.Abbrev, j.OverlapComm)
		}
		if j.Imbalance < 0 || j.Imbalance > 1 {
			t.Errorf("%s: imbalance %v", b.Abbrev, j.Imbalance)
		}
	}
}

func TestPaperDataConsistency(t *testing.T) {
	// The recorded paper tables must cover the registry.
	if len(TableIV) != 6 {
		t.Errorf("Table IV rows = %d, want 6", len(TableIV))
	}
	for _, p := range TableIV {
		if _, err := ByName(p.Bench); err != nil {
			t.Errorf("Table IV names unknown benchmark %s", p.Bench)
		}
		if p.PtoV <= 0 || p.S8 <= 0 {
			t.Errorf("degenerate paper row %+v", p)
		}
	}
	seen := map[string]bool{}
	for _, p := range TableV {
		if _, err := ByName(p.Bench); err != nil {
			t.Errorf("Table V names unknown benchmark %s", p.Bench)
		}
		seen[p.Bench] = true
	}
	if len(seen) != 13 {
		t.Errorf("Table V covers %d benchmarks, want 13", len(seen))
	}
	for bench := range PaperMixedPrecision {
		if _, err := ByName(bench); err != nil {
			t.Errorf("Figure 3 names unknown benchmark %s", bench)
		}
	}
}

func TestNCFBatchCap(t *testing.T) {
	b, err := ByName("ncf_py")
	if err != nil {
		t.Fatal(err)
	}
	if b.Job.MaxGlobalBatch == 0 {
		t.Error("NCF must carry the global-batch cap that limits its scaling (§IV-D)")
	}
	// At 8 GPUs the local batch must shrink below the reference batch.
	if got := b.Job.LocalBatchFor(8); got >= b.Job.BatchPerGPU {
		t.Errorf("NCF local batch at 8 GPUs = %d, not capped", got)
	}
}

func TestExtensionsMiniGo(t *testing.T) {
	exts := Extensions()
	if len(exts) != 1 || exts[0].Abbrev != "MLPf_MiniGo_RL" {
		t.Fatalf("extensions = %v", exts)
	}
	mg := exts[0]
	if mg.Domain != "Reinforcement Learning" {
		t.Errorf("domain = %s", mg.Domain)
	}
	if err := mg.Job.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{System: hw.DSS8440(), GPUCount: 4, Job: mg.Job})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToTrain <= 0 {
		t.Error("minigo extension does not simulate")
	}
	// Must stay excluded from the paper's study set.
	if _, err := ByName("MLPf_MiniGo_RL"); err == nil {
		t.Error("extension leaked into the paper registry")
	}
}

// Every spelling ByName accepted before canonical names got their own
// exact-match keys still resolves, and to the same benchmark.
func TestByNameAliases(t *testing.T) {
	for _, b := range All() {
		lower := strings.ToLower(b.Abbrev)
		short := lower
		for _, p := range []string{"mlpf_", "dawn_", "deep_"} {
			short = strings.TrimPrefix(short, p)
		}
		for _, name := range []string{
			b.Abbrev, lower, strings.ToUpper(b.Abbrev), " " + b.Abbrev + "\t",
			short, strings.ToUpper(short), " " + short,
		} {
			got, err := ByName(name)
			if err != nil {
				t.Errorf("ByName(%q): %v", name, err)
				continue
			}
			if got.Abbrev != b.Abbrev {
				t.Errorf("ByName(%q) = %s, want %s", name, got.Abbrev, b.Abbrev)
			}
		}
	}
}

// A canonical abbreviation — what every normalized cell key carries —
// resolves without allocating.
func TestByNameCanonicalAllocatesNothing(t *testing.T) {
	for _, b := range All() {
		if n := testing.AllocsPerRun(100, func() { _, _ = ByName(b.Abbrev) }); n != 0 {
			t.Errorf("ByName(%q): %v allocs, want 0", b.Abbrev, n)
		}
	}
}
