package sweep

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mlperf/internal/cas"
)

// RecordCodec is the serialization schema version of on-disk cell
// records. Decoding is strict — a version mismatch, a short or
// over-long payload, a non-canonical field or a key that is not the
// requested one all reject the entry — so a Record or layout change
// bumps this constant and old entries become clean misses (quarantined
// and re-simulated once) instead of half-decoded garbage.
//
// Codec 2 is a fixed binary layout: the uvarint codec version, the
// normalized CellKey, then the Record. Strings are uvarint
// length-prefixed, ints are zig-zag varints, Ref is one byte (0 or 1),
// and the Record's nine float64 metrics are little-endian IEEE bits, so
// every value round-trips bit for bit.
const RecordCodec = 2

// Store is the pluggable persistent tier behind the engine's in-memory
// singleflight map: consulted on a memory miss before simulating, and
// written through after every successful simulation. Implementations
// must be safe for concurrent use, must only return records they can
// verify (a doubtful entry is a miss, never an error), and must never
// store failures — errors are process-local, results are forever.
type Store interface {
	// Get returns the stored record for a normalized key, if present.
	Get(k CellKey) (Record, bool)
	// Put stores the record for a normalized key, best-effort: the cache
	// is an accelerator, so persistence failures must not fail the sweep.
	Put(k CellKey, rec Record)
	// Stats reports the tier's traffic.
	Stats() TierStats
}

// TierStats counts one cache tier's traffic. All counters are monotone.
type TierStats struct {
	// Hits counts lookups answered by this tier.
	Hits int64
	// Misses counts lookups this tier could not answer.
	Misses int64
	// Evictions counts intact entries this tier deliberately dropped —
	// forgotten poisoned cells for the memory tier, capacity evictions
	// for a bounded disk tier. Corrupt entries are NOT evictions; they
	// are counted under Quarantined.
	Evictions int64
	// Quarantined counts entries this tier removed because they failed
	// verification (envelope corruption, foreign codec, key mismatch) —
	// the disk tier's quarantine/ traffic. Always 0 for the memory tier.
	Quarantined int64
}

// DiskStore adapts the content-addressed blob store into the engine's
// persistent tier: keys address entries by their canonical digest and
// records travel in the strict versioned codec above. A DiskStore can
// be shared by concurrent sweeps in one process and — via the underlying
// store's per-handle segments — by multiple processes over one
// directory, which is what turns repeated paper-scale grids into
// near-free replays.
type DiskStore struct {
	cas *cas.Store
}

// OpenDiskStore opens (creating if needed) the persistent cell-record
// tier rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	s, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DiskStore{cas: s}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.cas.Dir() }

// Close releases the store's files and its segment lock. Get and Put
// fail (and read as misses) after Close.
func (d *DiskStore) Close() error { return d.cas.Close() }

// SetMaxBytes caps the tier's on-disk size; past it the oldest sealed
// segments are evicted on write-through, each record they held counted
// in TierStats.Evictions. n <= 0 removes the cap.
func (d *DiskStore) SetMaxBytes(n int64) { d.cas.SetMaxBytes(n) }

// Get implements Store. Any defect — unreadable entry, codec mismatch,
// key mismatch — reads as a miss; entries that passed the envelope
// checksum but fail the record codec are quarantined like corrupt ones.
func (d *DiskStore) Get(k CellKey) (Record, bool) {
	rec, ok, _ := d.GetE(k)
	return rec, ok
}

// GetE is Get with the environmental error surfaced: a corrupt entry is
// still a clean miss (quarantined, err == nil), but an unreadable
// directory or failing disk reports its error so callers that protect
// the tier — the serve daemon's circuit breaker — can distinguish "not
// cached" from "cache down".
func (d *DiskStore) GetE(k CellKey) (Record, bool, error) {
	digest := digestOf(k)
	payload, ok, err := d.cas.Get(digest)
	if err != nil || !ok {
		return Record{}, false, err
	}
	rec, derr := decodeRecord(payload, k)
	if derr != nil {
		// The envelope was intact but the payload is from another codec
		// era (or another key): evict it so the slot heals on re-put.
		d.cas.Quarantine(digest)
		return Record{}, false, nil
	}
	return rec, true, nil
}

// Put implements Store (best-effort; see the interface contract).
func (d *DiskStore) Put(k CellKey, rec Record) { _ = d.PutE(k, rec) }

// PutE is Put with the write error surfaced (full disk, permissions),
// for callers that track the tier's health.
func (d *DiskStore) PutE(k CellKey, rec Record) error {
	return d.cas.Put(digestOf(k), encodeRecord(k, rec))
}

// Stats implements Store, mapping the blob store's counters onto the
// tier view. Quarantines (corrupt, foreign-codec or misfiled entries
// moved aside) are reported as Quarantined, distinct from Evictions
// (capacity decisions about intact entries) — the two used to be
// conflated, which made a corruption storm read as a capacity problem.
func (d *DiskStore) Stats() TierStats {
	st := d.cas.Stats()
	return TierStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Evictions:   st.Evictions,
		Quarantined: st.Quarantined,
	}
}

// Len reports how many intact entries the store holds (inspection
// helper for CLIs and tests).
func (d *DiskStore) Len() (int, error) { return d.cas.Len() }

// encodeRecord serializes a record destined for key k in the
// RecordCodec layout.
func encodeRecord(k CellKey, rec Record) []byte {
	b := appendRecordKey(make([]byte, 0, 192), k)
	b = appendString(b, rec.Benchmark)
	b = appendString(b, rec.System)
	b = binary.AppendVarint(b, int64(rec.GPUs))
	b = binary.AppendVarint(b, int64(rec.Batch))
	b = appendString(b, rec.Precision)
	for _, f := range rec.metrics() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*f))
	}
	return b
}

// appendRecordKey appends the prefix every record stored for k starts
// with: the codec version and the key.
func appendRecordKey(b []byte, k CellKey) []byte {
	b = binary.AppendUvarint(b, RecordCodec)
	b = appendString(b, k.Benchmark)
	ref := byte(0)
	if k.Ref {
		ref = 1
	}
	b = append(b, ref)
	b = appendString(b, k.System)
	b = binary.AppendVarint(b, int64(k.GPUs))
	b = binary.AppendVarint(b, int64(k.Batch))
	b = appendString(b, k.Precision)
	return appendString(b, k.Faults)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// metrics lists the record's float fields in codec order.
func (r *Record) metrics() [9]*float64 {
	return [9]*float64{&r.TimeToTrainMin, &r.StepMs, &r.Throughput, &r.CPUPct, &r.GPUPct,
		&r.DRAMMB, &r.HBMMB, &r.PCIeMbps, &r.NVLinkMbps}
}

// decodeRecord strictly decodes a stored record destined for key k. The
// payload must start with exactly the codec version and key encodeRecord
// writes for k — so a foreign codec, a misfiled entry or a bad Ref byte
// never decodes — and the record must fill the rest to the last byte.
func decodeRecord(payload []byte, k CellKey) (Record, error) {
	var buf [256]byte
	rest, ok := bytes.CutPrefix(payload, appendRecordKey(buf[:0], k))
	if !ok {
		if c, n := binary.Uvarint(payload); n > 0 && c != RecordCodec {
			return Record{}, fmt.Errorf("sweep: stored record codec %d, want %d", c, RecordCodec)
		}
		return Record{}, fmt.Errorf("sweep: stored record is not for key %+v", k)
	}
	r := recordReader{b: rest}
	rec := Record{
		Benchmark: r.string(k.Benchmark),
		System:    r.string(k.System),
		GPUs:      r.int(),
		Batch:     r.int(),
		Precision: r.string(k.Precision),
	}
	for _, f := range rec.metrics() {
		*f = math.Float64frombits(r.uint64())
	}
	if r.bad || len(r.b) != 0 {
		return Record{}, fmt.Errorf("sweep: malformed stored record for key %+v", k)
	}
	return rec, nil
}

// recordReader walks the record part of a stored payload; the first
// defect sets bad, and every later read returns a zero value.
type recordReader struct {
	b   []byte
	bad bool
}

func (r *recordReader) fail() {
	r.bad = true
	r.b = nil
}

// uvarint reads a minimally encoded uvarint: a longer encoding of the
// same value is rejected, keeping decode the exact inverse of encode.
func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zig-zag varint, as binary.AppendVarint writes it.
func (r *recordReader) int() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// string reads a length-prefixed string, sharing like's storage when
// the bytes match: a record's names are its key's, so a hit allocates
// no strings.
func (r *recordReader) string(like string) string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	b := r.b[:n]
	r.b = r.b[n:]
	if string(b) == like {
		return like
	}
	return string(b)
}

func (r *recordReader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}
