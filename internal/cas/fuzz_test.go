package cas

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEnvelope drives arbitrary bytes through the record decoder:
// it must never panic, and it may return a payload only when encoding
// that payload again under the same key reproduces the input exactly —
// no alternative spelling of a header (leading zeros, signs, uppercase
// hex, trailing junk) is ever accepted as a record.
func FuzzDecodeEnvelope(f *testing.F) {
	d := digestOf([]byte("abc"))
	f.Add(encodeEnvelope(d, nil))
	f.Add(encodeEnvelope(d, []byte("payload")))
	f.Add(bytes.Replace(encodeEnvelope(d, []byte("abc")), []byte("len 3"), []byte("len 03"), 1))
	f.Add(bytes.Replace(encodeEnvelope(d, []byte("abc")), []byte("mlperf-cas 2"), []byte("mlperf-cas 2 "), 1))
	f.Add(bytes.ToUpper(encodeEnvelope(d, []byte("abc"))))
	f.Add([]byte("mlperf-cas 2\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		if again := encodeEnvelope(hex.EncodeToString(key[:]), payload); !bytes.Equal(again, data) {
			t.Fatalf("decodeEnvelope accepted %q, which re-encodes as %q", data, again)
		}
	})
}

// FuzzScanSegment opens a store over one segment of arbitrary bytes.
// The scan must never panic and never index a record past the end of
// the file; every indexed record must either verify or be quarantined
// by Get; and a later handle must neither re-quarantine anything nor
// index anything that fails to verify.
func FuzzScanSegment(f *testing.F) {
	a, b := []byte("first"), []byte("second")
	good := append(encodeEnvelope(digestOf(a), a), encodeEnvelope(digestOf(b), b)...)
	f.Add(good)
	f.Add(good[:len(good)-3])                                           // torn tail
	f.Add(bytes.Replace(good, []byte("second"), []byte("secont"), 1))   // bad checksum
	f.Add(bytes.Replace(good, []byte("len 5"), []byte("len 6"), 1))     // misframed
	f.Add(append(encodeEnvelope(digestOf(a), b), good...))              // misfiled
	f.Add(append([]byte("mlperf-cas 2\nkey zz\n"), good...))            // bad header
	f.Add(append(bytes.Repeat([]byte{'x'}, maxHeaderBytes+1), good...)) // no header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var digests []string
		for key, l := range s.index {
			if l.off < 0 || l.off+int64(l.n) > int64(len(data)) {
				t.Fatalf("record indexed at [%d, %d) past EOF %d", l.off, l.off+int64(l.n), len(data))
			}
			digests = append(digests, hex.EncodeToString(key[:]))
		}
		for _, d := range digests {
			before := s.Stats().Quarantined
			_, ok, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !ok && s.Stats().Quarantined != before+1 {
				t.Fatalf("indexed record %s neither verified nor was quarantined", d[:8])
			}
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if st := again.Stats(); st.Quarantined != 0 {
			t.Fatalf("second handle re-quarantined: %+v", st)
		}
		for key := range again.index {
			if _, ok, err := again.Get(hex.EncodeToString(key[:])); err != nil || !ok {
				t.Fatalf("second handle indexed a condemned record: ok=%v err=%v", ok, err)
			}
		}
	})
}
