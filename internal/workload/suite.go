// Package workload glues models, datasets and calibration into the three
// benchmark suites the paper studies (Table II): the seven GPU-submitted
// MLPerf v0.5 training benchmarks, DAWNBench's two entries, and
// DeepBench's four kernel benchmarks. Reinforcement learning is excluded
// exactly as the paper excludes it (no GPU submission, footnote 1), and so
// is DeepBench's MPI all-reduce (multi-machine).
package workload

import (
	"fmt"
	"sort"
	"strings"

	"mlperf/internal/dataset"
	"mlperf/internal/model"
	"mlperf/internal/precision"
	"mlperf/internal/sim"
	"mlperf/internal/units"
)

// Suite identifies a benchmark suite.
type Suite string

// The three suites.
const (
	MLPerf    Suite = "MLPerf"
	DAWNBench Suite = "DAWNBench"
	DeepBench Suite = "DeepBench"
)

// Benchmark is one Table II entry bound to a runnable simulator job.
type Benchmark struct {
	// Abbrev is the paper's abbreviation (e.g. "MLPf_Res50_TF").
	Abbrev string
	Suite  Suite
	// Domain, ModelName, Framework, Submitter, QualityTarget mirror the
	// Table II columns.
	Domain        string
	ModelName     string
	Framework     string
	Submitter     string
	QualityTarget string
	// Job is the calibrated simulator configuration.
	Job sim.Job
	// RefJob simulates the unoptimized MLPerf *reference implementation*
	// (the code Table IV's 1xP100 column measures); zero-valued for
	// benchmarks with no reference column.
	RefJob sim.Job
}

// registry is built once at init; byName indexes it by every accepted
// spelling so lookups on the sweep hot path are one map probe, not a
// scan. Its keys are the lower-case aliases plus each canonical
// abbreviation as written, so an already-normalized name resolves
// without case folding. First registration wins on (hypothetical) alias
// collisions, preserving the old first-match scan order.
var (
	registry []Benchmark
	byName   map[string]int
)

func init() {
	registry = buildRegistry()
	byName = make(map[string]int, 4*len(registry))
	for i, b := range registry {
		ab := strings.ToLower(b.Abbrev)
		for _, alias := range []string{
			b.Abbrev,
			ab,
			strings.TrimPrefix(ab, "mlpf_"),
			strings.TrimPrefix(ab, "dawn_"),
			strings.TrimPrefix(ab, "deep_"),
		} {
			if _, dup := byName[alias]; !dup {
				byName[alias] = i
			}
		}
	}
}

func buildRegistry() []Benchmark {
	var out []Benchmark

	mk := func(abbrev string, suite Suite, domain, mdl, fw, sub, target string,
		net *model.Network, data dataset.Dataset, c calib) {
		b := Benchmark{
			Abbrev: abbrev, Suite: suite, Domain: domain, ModelName: mdl,
			Framework: fw, Submitter: sub, QualityTarget: target,
			Job: c.job(abbrev, net, data),
		}
		if c.ref.epochs > 0 {
			b.RefJob = c.refJob(abbrev, net, data)
		}
		out = append(out, b)
	}

	mk("MLPf_Res50_TF", MLPerf, "Image Classification", "ResNet-50",
		"TensorFlow", "Google", "Accuracy: 0.749",
		model.ResNet50(), dataset.ImageNet, calibRes50TF)
	mk("MLPf_Res50_MX", MLPerf, "Image Classification", "ResNet-50",
		"MXNet", "NVIDIA", "Accuracy: 0.749",
		model.ResNet50(), dataset.ImageNet, calibRes50MX)
	mk("MLPf_SSD_Py", MLPerf, "Object Detection (light-weight)", "SSD",
		"PyTorch", "NVIDIA", "mAP: 0.212",
		model.SSD300(), dataset.COCO300, calibSSD)
	mk("MLPf_MRCNN_Py", MLPerf, "Object Detection (heavy-weight)", "Mask R-CNN",
		"PyTorch", "NVIDIA", "Box mAP: 0.377, Mask mAP: 0.339",
		model.MaskRCNN(), dataset.COCO, calibMRCNN)
	mk("MLPf_XFMR_Py", MLPerf, "Translation", "Transformer",
		"PyTorch", "NVIDIA", "BLEU: 25",
		model.Transformer(), dataset.WMT17, calibXFMR)
	mk("MLPf_GNMT_Py", MLPerf, "Translation", "RNN GNMT",
		"PyTorch", "NVIDIA", "Sacre BLEU: 21.80",
		model.GNMT(), dataset.WMT17, calibGNMT)
	mk("MLPf_NCF_Py", MLPerf, "Recommendation", "Neural Collaborative Filtering",
		"PyTorch", "NVIDIA", "Hit rate @10: 0.635",
		model.NCF(), dataset.MovieLens20M, calibNCF)

	mk("Dawn_Res18_Py", DAWNBench, "Image Classification", "ResNet-18 (modified)",
		"PyTorch", "bkj", "Test accuracy: 94%",
		model.ResNet18CIFAR(), dataset.CIFAR10, calibRes18)
	mk("Dawn_DrQA_Py", DAWNBench, "Question Answering", "DrQA",
		"PyTorch", "Yang et al.", "F1: 0.75",
		model.DrQA(), dataset.SQuAD, calibDrQA)

	mk("Deep_GEMM_Cu", DeepBench, "Dense Matrix Multiply", "gemm_bench",
		"CUDA", "Baidu/NVIDIA", "n/a",
		model.DeepGEMM(), kernelDataset("gemm sweep"), calibDeepGEMM)
	mk("Deep_Conv_Cu", DeepBench, "Convolution", "conv_bench",
		"CUDA", "Baidu/NVIDIA", "n/a",
		model.DeepConv(), kernelDataset("conv sweep"), calibDeepConv)
	mk("Deep_RNN_Cu", DeepBench, "Recurrent Layers", "rnn_bench",
		"CUDA", "Baidu/NVIDIA", "n/a",
		model.DeepRNN(), kernelDataset("rnn sweep"), calibDeepRNN)
	mk("Deep_Red_Cu", DeepBench, "Communication (AllReduce)", "nccl_single_all_reduce",
		"CUDA", "Baidu/NVIDIA", "n/a",
		model.DeepAllReduce(), kernelDataset("allreduce sweep"), calibDeepRed)

	return out
}

// kernelDataset fabricates the "dataset" of a kernel sweep: iterations of
// the benchmark loop.
func kernelDataset(name string) dataset.Dataset {
	return dataset.Dataset{
		Name:         name,
		TrainSamples: 10000, // benchmark loop iterations
		DiskBytes:    1,
		SampleBytes:  1,
	}
}

// All returns every benchmark the paper studies. The reinforcement
// learning entry the paper excludes is available via Extensions().
func All() []Benchmark { return append([]Benchmark(nil), registry...) }

// Extensions returns benchmarks beyond the paper's study set: currently
// the MLPerf v0.5 reinforcement-learning entry (minigo), which the paper
// excludes for lack of a GPU submission (footnote 1). Its calibration is
// a plausible PyTorch-style profile, not a fit to published numbers — it
// exists so the model zoo covers the full v0.5 suite and so users can ask
// "what if minigo had a GPU submission?".
func Extensions() []Benchmark {
	selfPlay := dataset.Dataset{
		Name:         "self-play positions",
		TrainSamples: 2000000, // positions generated per generation
		DiskBytes:    12 * units.GB,
		SampleBytes:  19 * 19 * 17,
		EvalSamples:  10000,
	}
	c := calib{
		batch: 64, epochs: 1, // one generation of the RL loop
		policy: precision.AMP, eligFrac: 0.9, tensorEff: 0.30, mathEff: 0.70, memEff: 0.85,
		overlap: 0.6,
		// Self-play move generation keeps the host busy (the paper notes
		// the reference "spends more time on the CPU than the GPU").
		cpuSec: 0.02, workers: 8, serialPerEpoch: 120,
		hostBase: 4 * units.GB, hostPerGPU: 2 * units.GB,
		greedy: false, idle: 0.15, optSlots: 1,
	}
	return []Benchmark{{
		Abbrev: "MLPf_MiniGo_RL", Suite: MLPerf,
		Domain: "Reinforcement Learning", ModelName: "MiniGo (AlphaGo-Zero style)",
		Framework: "TensorFlow", Submitter: "reference only",
		QualityTarget: "40 generations / pro-move prediction",
		Job:           c.job("MLPf_MiniGo_RL", model.MiniGo(), selfPlay),
	}}
}

// BySuite returns the benchmarks of one suite.
func BySuite(s Suite) []Benchmark {
	var out []Benchmark
	for _, b := range registry {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// MLPerfSuite returns the seven MLPerf benchmarks.
func MLPerfSuite() []Benchmark { return BySuite(MLPerf) }

// ByName finds a benchmark by abbreviation (case-insensitive; also
// accepts the short form without the suite prefix, e.g. "res50_tf").
func ByName(name string) (Benchmark, error) {
	i, ok := byName[name]
	if !ok {
		i, ok = byName[strings.ToLower(strings.TrimSpace(name))]
	}
	if ok {
		return registry[i], nil
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns all abbreviations, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Abbrev
	}
	sort.Strings(out)
	return out
}
