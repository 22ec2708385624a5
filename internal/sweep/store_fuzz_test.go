package sweep

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeRecord drives the disk-tier record codec two ways. Arbitrary
// bytes must never panic decodeRecord, and any payload it accepts must
// be exactly what encodeRecord writes for the requested key — so a
// successful decode never yields another key's record. A record built
// from the fuzzed fields must round-trip through encodeRecord and
// decodeRecord bit for bit, NaN payloads and signed zeros included.
func FuzzDecodeRecord(f *testing.F) {
	k := CellKey{Benchmark: "res50_tf", System: "C4140 (K)", GPUs: 4, Precision: "mixed"}
	f.Add(encodeRecord(k, Record{Benchmark: k.Benchmark, System: k.System, GPUs: 4, Batch: 256, StepMs: 1.5}),
		k.Benchmark, k.System, k.Precision, "", false, 4, 0, uint64(0x3ff8000000000000))
	f.Add([]byte{RecordCodec}, "gnmt_py", "DSS 8440", "fp32", `{"Seed":7}`, true, 8, 32, uint64(0x7ff8000000000001))
	f.Add([]byte(`{"codec":1}`), "", "", "", "", false, -1, -1, uint64(1<<63))
	f.Fuzz(func(t *testing.T, data []byte, bench, sys, prec, faults string, ref bool, gpus, batch int, bits uint64) {
		k := CellKey{Benchmark: bench, Ref: ref, System: sys, GPUs: gpus, Batch: batch, Precision: prec, Faults: faults}
		if rec, err := decodeRecord(data, k); err == nil {
			if again := encodeRecord(k, rec); !bytes.Equal(again, data) {
				t.Fatalf("decodeRecord accepted %x for key %+v, which encodes as %x", data, k, again)
			}
		}

		want := Record{Benchmark: bench, System: prec, GPUs: batch, Batch: gpus, Precision: faults}
		for i, f := range want.metrics() {
			*f = math.Float64frombits(bits + uint64(i)*0x0123456789abcdef)
		}
		got, err := decodeRecord(encodeRecord(k, want), k)
		if err != nil {
			t.Fatalf("round trip of %+v under %+v: %v", want, k, err)
		}
		gm, wm := got.metrics(), want.metrics()
		for i := range gm {
			if math.Float64bits(*gm[i]) != math.Float64bits(*wm[i]) {
				t.Fatalf("metric %d: got bits %x, want %x", i, math.Float64bits(*gm[i]), math.Float64bits(*wm[i]))
			}
		}
		if got.Benchmark != want.Benchmark || got.System != want.System || got.GPUs != want.GPUs ||
			got.Batch != want.Batch || got.Precision != want.Precision {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		other := k
		other.GPUs++
		if _, err := decodeRecord(encodeRecord(k, want), other); err == nil {
			t.Fatalf("record for %+v decoded under %+v", k, other)
		}
	})
}
