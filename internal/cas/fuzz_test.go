package cas

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope drives arbitrary bytes through the entry decoder:
// it must never panic, and it may return a payload only when wrapping
// that payload again reproduces the input exactly — no alternative
// spelling of a header (leading zeros, signs, uppercase hex, trailing
// junk) is ever accepted as an entry.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(encodeEnvelope(nil))
	f.Add(encodeEnvelope([]byte("payload")))
	f.Add(bytes.Replace(encodeEnvelope([]byte("abc")), []byte("len 3"), []byte("len 03"), 1))
	f.Add(bytes.Replace(encodeEnvelope([]byte("abc")), []byte("mlperf-cas 1"), []byte("mlperf-cas 1 "), 1))
	f.Add(bytes.ToUpper(encodeEnvelope([]byte("abc"))))
	f.Add([]byte("mlperf-cas 1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		if again := encodeEnvelope(payload); !bytes.Equal(again, data) {
			t.Fatalf("decodeEnvelope accepted %q, which re-encodes as %q", data, again)
		}
	})
}
