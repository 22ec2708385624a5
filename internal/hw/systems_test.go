package hw

import (
	"testing"

	"mlperf/internal/units"
)

func TestAllSystemsWellFormed(t *testing.T) {
	for _, s := range AllSystems() {
		if got := len(s.Topo.GPUs()); got != s.GPUCount {
			t.Errorf("%s: %d GPU nodes, want %d", s.Name, got, s.GPUCount)
		}
		if got := len(s.Topo.CPUs()); got != s.CPUSockets {
			t.Errorf("%s: %d CPU nodes, want %d", s.Name, got, s.CPUSockets)
		}
		// Every GPU must reach every CPU (input pipeline path exists).
		for _, g := range s.Topo.GPUs() {
			for _, c := range s.Topo.CPUs() {
				if _, ok := s.Topo.WidestPath(c, g); !ok {
					t.Errorf("%s: no path %s->%s", s.Name, c, g)
				}
			}
		}
		// Every GPU pair must be mutually reachable.
		gpus := s.Topo.GPUs()
		for i := range gpus {
			for j := i + 1; j < len(gpus); j++ {
				if _, ok := s.Topo.WidestPath(gpus[i], gpus[j]); !ok {
					t.Errorf("%s: no path %s<->%s", s.Name, gpus[i], gpus[j])
				}
			}
		}
	}
}

// TestP2PCapabilities checks §V-E: T640 and R940XA support no GPUDirect
// P2P; C4140(B) supports it through the PLX switch; the NVLink systems
// support it everywhere; DSS8440 supports it within a switch group only.
func TestP2PCapabilities(t *testing.T) {
	noP2P := []*System{T640(), R940XA()}
	for _, s := range noP2P {
		gpus := s.Topo.GPUs()
		for i := range gpus {
			for j := i + 1; j < len(gpus); j++ {
				if s.Topo.CanP2P(gpus[i], gpus[j]) {
					t.Errorf("%s: %s<->%s unexpectedly P2P-capable", s.Name, gpus[i], gpus[j])
				}
			}
		}
	}
	fullP2P := []*System{C4140B(), C4140K(), C4140M()}
	for _, s := range fullP2P {
		gpus := s.Topo.GPUs()
		for i := range gpus {
			for j := i + 1; j < len(gpus); j++ {
				if !s.Topo.CanP2P(gpus[i], gpus[j]) {
					t.Errorf("%s: %s<->%s should be P2P-capable", s.Name, gpus[i], gpus[j])
				}
			}
		}
	}
	d := DSS8440()
	if !d.Topo.CanP2P("gpu0", "gpu3") {
		t.Error("DSS8440: gpu0<->gpu3 share a switch, should be P2P")
	}
	if d.Topo.CanP2P("gpu0", "gpu4") {
		t.Error("DSS8440: gpu0<->gpu4 cross sockets, should not be P2P")
	}
}

// TestInterconnectOrdering checks the Figure 5 premise at the hardware
// level: NVLink pair bandwidth > PCIe-switch P2P bandwidth > through-CPU
// staged bandwidth.
func TestInterconnectOrdering(t *testing.T) {
	nv := C4140K().Topo.GPUPairBandwidth("gpu0", "gpu1")
	sw := C4140B().Topo.GPUPairBandwidth("gpu0", "gpu1")
	host := T640().Topo.GPUPairBandwidth("gpu0", "gpu2") // cross-socket
	if !(nv > sw && sw > host) {
		t.Errorf("bandwidth ordering violated: nvlink=%v switch=%v host=%v", nv, sw, host)
	}
	// NVLink at 2 bricks ~ 46 GB/s effective; must dwarf PCIe's ~12.3.
	if nv < 40*units.GBps {
		t.Errorf("NVLink pair bandwidth %v implausibly low", nv)
	}
}

func TestCrossSocketCrossesUPI(t *testing.T) {
	s := T640()
	p, ok := s.Topo.WidestPath("gpu0", "gpu2")
	if !ok {
		t.Fatal("no path")
	}
	if !p.CrossesUPI || !p.CrossesCPU {
		t.Errorf("gpu0->gpu2 on T640: CrossesUPI=%v CrossesCPU=%v, want both true", p.CrossesUPI, p.CrossesCPU)
	}
	p01, _ := s.Topo.WidestPath("gpu0", "gpu1")
	if p01.CrossesUPI {
		t.Error("gpu0->gpu1 same socket should not cross UPI")
	}
}

func TestTableIIIQuantities(t *testing.T) {
	cases := []struct {
		sys      *System
		dramGiB  float64
		gpuHBM   units.Bytes
		gpuCount int
	}{
		{T640(), 192, 32 * units.GiB, 4},
		{C4140B(), 192, 16 * units.GiB, 4},
		{C4140K(), 192, 16 * units.GiB, 4},
		{C4140M(), 384, 16 * units.GiB, 4},
		{R940XA(), 384, 32 * units.GiB, 4},
		{DSS8440(), 384, 16 * units.GiB, 8},
	}
	for _, c := range cases {
		if got := float64(c.sys.TotalDRAM()) / float64(units.GiB); got != c.dramGiB {
			t.Errorf("%s DRAM = %vGiB, want %v", c.sys.Name, got, c.dramGiB)
		}
		if c.sys.GPU.MemCapacity != c.gpuHBM {
			t.Errorf("%s HBM = %v, want %v", c.sys.Name, c.sys.GPU.MemCapacity, c.gpuHBM)
		}
		if c.sys.GPUCount != c.gpuCount {
			t.Errorf("%s GPUs = %d, want %d", c.sys.Name, c.sys.GPUCount, c.gpuCount)
		}
	}
}

func TestSystemByName(t *testing.T) {
	for _, name := range []string{"T640", "c4140b", "C4140 (K)", "c4140m", "R940 XA", "dss8440", "p100"} {
		if _, err := SystemByName(name); err != nil {
			t.Errorf("SystemByName(%q): %v", name, err)
		}
	}
	if _, err := SystemByName("dgx2"); err == nil {
		t.Error("SystemByName(dgx2) should fail")
	}
}

func TestGPUPeakTable(t *testing.T) {
	v := TeslaV100SXM2
	if v.PeakAt(TensorFP16) != 125*units.TFLOPS {
		t.Errorf("V100 tensor peak = %v", v.PeakAt(TensorFP16))
	}
	if v.PeakAt(FP32) != 15.7*units.TFLOPS {
		t.Errorf("V100 fp32 peak = %v", v.PeakAt(FP32))
	}
	p := TeslaP100
	// P100 has no tensor cores: TensorFP16 falls back to 2x fp32.
	if p.PeakAt(TensorFP16) != p.Peak[FP32]*2 {
		t.Errorf("P100 tensor fallback = %v, want %v", p.PeakAt(TensorFP16), p.Peak[FP32]*2)
	}
}

func TestCPUPeak(t *testing.T) {
	// 20 cores x 2.4GHz x 32 flops = 1.536 TFLOPS.
	got := XeonGold6148.PeakFLOPS()
	if got != units.FLOPSRate(1.536e12) {
		t.Errorf("6148 peak = %v, want 1.536TFLOPS", got)
	}
}

func TestDRAMvsUPIAsymmetry(t *testing.T) {
	// §V-C: local DRAM ~128 GB/s theoretical vs UPI 20.8 GB/s.
	local := DRAMLink(6, 2666)
	if got := local.Bandwidth.GBs(); got < 125 || got > 130 {
		t.Errorf("local DRAM bw = %vGB/s, want ~128", got)
	}
	if UPILink().Bandwidth.GBs() != 20.8 {
		t.Errorf("UPI bw = %v, want 20.8GB/s", UPILink().Bandwidth.GBs())
	}
}

func TestHostToGPUBandwidth(t *testing.T) {
	s := C4140K()
	bw := s.Topo.HostToGPUBandwidth("cpu0", "gpu0")
	// PCIe3 x16 effective = 15.75*0.78 ≈ 12.3 GB/s.
	if bw.GBs() < 11 || bw.GBs() > 16 {
		t.Errorf("cpu0->gpu0 bw = %vGB/s, want ~12.3", bw.GBs())
	}
	if got := s.Topo.HostToGPUBandwidth("cpu0", "nope"); got != 0 {
		t.Errorf("unknown GPU bandwidth = %v, want 0", got)
	}
}

func TestDGX1Topology(t *testing.T) {
	d := DGX1()
	if d.GPUCount != 8 || len(d.Topo.GPUs()) != 8 {
		t.Fatalf("DGX-1 GPU count wrong")
	}
	// Every GPU pair is P2P-capable: NVLink within quads, and the cube
	// edges bridge the quads without touching a CPU.
	gpus := d.Topo.GPUs()
	for i := range gpus {
		for j := i + 1; j < len(gpus); j++ {
			if !d.Topo.CanP2P(gpus[i], gpus[j]) {
				t.Errorf("DGX-1 %s<->%s not P2P", gpus[i], gpus[j])
			}
		}
	}
	// Each V100 has six bricks; the wiring must not exceed that.
	brickCount := map[string]float64{}
	for i := range gpus {
		for j := range gpus {
			if i == j {
				continue
			}
			if l, ok := d.Topo.DirectLink(gpus[i], gpus[j]); ok {
				brickCount[gpus[i]] += float64(l.Bandwidth) / 25e9
			}
		}
	}
	for g, n := range brickCount {
		if n > 6.01 {
			t.Errorf("%s uses %.0f NVLink bricks, V100 has 6", g, n)
		}
	}
	if _, err := SystemByName("dgx1"); err != nil {
		t.Errorf("SystemByName(dgx1): %v", err)
	}
}

func TestDGX1BeatsDSS8440OnCommHeavy(t *testing.T) {
	// The NVLink cube mesh must give higher cross-quad pair bandwidth than
	// the DSS 8440's host-staged cross-switch route.
	dgx := DGX1()
	dss := DSS8440()
	if dgx.Topo.GPUPairBandwidth("gpu0", "gpu4") <= dss.Topo.GPUPairBandwidth("gpu0", "gpu4") {
		t.Error("DGX-1 cross-quad bandwidth should beat DSS 8440's staged route")
	}
}

func TestSharedSystemByName(t *testing.T) {
	a, err := SharedSystemByName("c4140k")
	if err != nil {
		t.Fatal(err)
	}
	// Same instance for the canonical name and any alias spelling.
	for _, alias := range []string{"c4140k", "C4140 (K)", "C4140K"} {
		s, err := SharedSystemByName(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if s != a {
			t.Errorf("alias %q resolved to a distinct instance", alias)
		}
	}
	// Distinct systems stay distinct; unknown names still fail.
	b, err := SharedSystemByName("t640")
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Error("t640 and c4140k share an instance")
	}
	if _, err := SharedSystemByName("nope"); err == nil {
		t.Error("unknown system resolved")
	}
	// SystemByName still constructs fresh, mutable copies.
	if s, _ := SystemByName("c4140k"); s == a {
		t.Error("SystemByName returned the shared instance")
	}
}

// Every alias SystemByName accepts, in any case and punctuation, shares
// the canonical name's instance.
func TestSharedSystemByNameAliases(t *testing.T) {
	cases := map[string][]string{
		"T640":             {"t640", "T640", "t-640", "T 640"},
		"C4140 (B)":        {"c4140b", "C4140B", "c4140 (b)"},
		"C4140 (K)":        {"c4140k", "C4140K", "c4140-k"},
		"C4140 (M)":        {"c4140m", "C4140M"},
		"R940 XA":          {"r940xa", "R940XA", "r940 xa"},
		"DSS 8440":         {"dss8440", "DSS8440", "dss 8440"},
		"DGX-1":            {"dgx1", "dgx", "DGX", "dgx-1"},
		"Reference (P100)": {"p100", "P100", "referencep100", "reference", "Reference"},
	}
	for canon, aliases := range cases {
		want, err := SharedSystemByName(canon)
		if err != nil {
			t.Fatalf("%s: %v", canon, err)
		}
		if want.Name != canon {
			t.Fatalf("%s resolved to %s", canon, want.Name)
		}
		for _, alias := range aliases {
			got, err := SharedSystemByName(alias)
			if err != nil {
				t.Errorf("%q: %v", alias, err)
			} else if got != want {
				t.Errorf("%q resolved to %s, want the %s instance", alias, got.Name, canon)
			}
		}
	}
}

// A canonical system name — what every normalized cell key carries —
// resolves without allocating once it has been seen.
func TestSharedSystemByNameCanonicalAllocatesNothing(t *testing.T) {
	for _, s := range append(AllSystems(), DGX1(), ReferenceP100()) {
		if _, err := SharedSystemByName(s.Name); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = SharedSystemByName(s.Name) }); n != 0 {
			t.Errorf("SharedSystemByName(%q): %v allocs, want 0", s.Name, n)
		}
	}
}
