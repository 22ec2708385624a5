package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// KeySchema is the cell-key content-address schema version. It is baked
// into every digest, so any change to the key's fields, normalization or
// encoding MUST bump it — old on-disk entries then simply miss (a cold
// start) instead of being misattributed to the wrong configuration. The
// digest-stability golden test pins the current scheme; if it fails you
// either revert the encoding change or bump this constant.
const KeySchema = 1

// keyWire is the canonical digest encoding of a normalized CellKey: its
// json.Marshal bytes. The JSON field order is fixed by this struct and
// the Faults field is the fault plan's canonical JSON string (already
// normalized by fault.Plan.Canon), so equal cells — however they were
// spelled — encode to identical bytes. appendKeyWire builds the same
// bytes without reflection.
type keyWire struct {
	Schema    int    `json:"schema"`
	Benchmark string `json:"benchmark"`
	Ref       bool   `json:"ref"`
	System    string `json:"system"`
	GPUs      int    `json:"gpus"`
	Batch     int    `json:"batch"`
	Precision string `json:"precision"`
	Faults    string `json:"faults"`
}

// digestOf returns the SHA-256 content address of a normalized key as
// lowercase hex. k must already be normalized; Digest is the exported,
// normalizing wrapper.
func digestOf(k CellKey) string {
	var buf [256]byte
	sum := sha256.Sum256(appendKeyWire(buf[:0], k))
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

// appendKeyWire appends the keyWire encoding of k to dst. Strings that
// need no JSON escaping are copied verbatim; a key holding any byte
// encoding/json would escape or validate (quotes, backslashes, HTML
// characters, control bytes, non-ASCII) is encoded by json.Marshal
// itself, so the bytes are json.Marshal's in every case.
func appendKeyWire(dst []byte, k CellKey) []byte {
	if !plainJSON(k.Benchmark) || !plainJSON(k.System) || !plainJSON(k.Precision) || !plainJSON(k.Faults) {
		b, err := json.Marshal(keyWire{
			Schema:    KeySchema,
			Benchmark: k.Benchmark,
			Ref:       k.Ref,
			System:    k.System,
			GPUs:      k.GPUs,
			Batch:     k.Batch,
			Precision: k.Precision,
			Faults:    k.Faults,
		})
		if err != nil {
			// Marshalling a struct of strings/ints/bools cannot fail; treat
			// it as the programming error it would be.
			panic(fmt.Sprintf("sweep: cell key encoding: %v", err))
		}
		return append(dst, b...)
	}
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, KeySchema, 10)
	dst = append(dst, `,"benchmark":"`...)
	dst = append(dst, k.Benchmark...)
	dst = append(dst, `","ref":`...)
	dst = strconv.AppendBool(dst, k.Ref)
	dst = append(dst, `,"system":"`...)
	dst = append(dst, k.System...)
	dst = append(dst, `","gpus":`...)
	dst = strconv.AppendInt(dst, int64(k.GPUs), 10)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, int64(k.Batch), 10)
	dst = append(dst, `,"precision":"`...)
	dst = append(dst, k.Precision...)
	dst = append(dst, `","faults":"`...)
	dst = append(dst, k.Faults...)
	return append(dst, `"}`...)
}

// plainJSON reports whether encoding/json writes s between its quotes
// unchanged: printable ASCII other than '"', '\\', '<', '>' and '&'.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Digest returns the cell's canonical content address: the SHA-256 of
// the normalized key under the current KeySchema. Spelling variants of
// one cell share a digest; any two distinct configurations get distinct
// digests. This is the name the on-disk cache tier and the shard
// coordinator both key on.
func (k CellKey) Digest() (string, error) {
	nk, err := k.normalize()
	if err != nil {
		return "", err
	}
	return digestOf(nk), nil
}
