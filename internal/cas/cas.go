// Package cas is the on-disk content-addressed store behind the sweep
// engine's persistent tier: a 64-hex digest names an immutable blob —
// one sweep cell's serialized record — so repeated paper-scale grids
// across processes and runs replay from disk instead of re-simulating.
//
// The store is log-structured. A handle that writes appends records to a
// segment file of its own (<random>.seg) and holds an exclusive flock on
// it for as long as the segment may grow; an in-memory index maps every
// digest to its segment, offset and length. A Put is one write(), a Get
// one pread() followed by full verification. Records are self-delimiting
// and name their own digest, so Open rebuilds the index by scanning
// record headers, and a Get that misses first picks up whatever other
// writers appended since the last look.
//
// Records are deliberately strict. Each starts with a magic line naming
// the envelope version, the digest it is filed under, a SHA-256 checksum
// of the payload and the payload length; Get re-verifies all of them.
// Anything that fails — bad magic, unknown version, wrong digest, short
// payload, checksum mismatch, a write torn by a writer that died — is
// copied into the store's quarantine/ directory (preserving the evidence
// for inspection), condemned by a tombstone so that no handle serves it
// again, and treated as a miss: a crashed writer or a flipped bit costs
// one re-simulation, never a wrong result.
//
// The store relies on flock(2) and is therefore Unix-only.
package cas

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// EnvelopeVersion is the on-disk record format version. Get rejects (and
// quarantines) any other version: a format change must not be silently
// misread as data.
const EnvelopeVersion = 2

// magic is the first envelope line, including the version.
const magic = "mlperf-cas"

// quarantineDir is the subdirectory condemned records are copied into.
const quarantineDir = "quarantine"

// segExt names segment files; nothing else in the store directory is
// scanned for records.
const segExt = ".seg"

// tombstoneLog is the append-only log of condemned records, one
// "<digest|-> <segment> <offset>" line each. Every scan skips the
// records it names, whatever order segments are listed in.
const tombstoneLog = "tombstones"

// DefaultQuarantineLimit bounds how many quarantined entries a store
// keeps. Quarantine preserves evidence, but evidence must not become a
// disk leak: an attacker (or a flaky disk) feeding the store corrupt
// entries forever would otherwise grow quarantine/ without limit. Beyond
// the cap the oldest entries are dropped.
const DefaultQuarantineLimit = 64

// maxEntryBytes caps a record's payload. Real payloads are a few hundred
// bytes; a header announcing more cannot be a record this store wrote,
// so it is condemned before anything is allocated for it.
const maxEntryBytes = 1 << 20

// maxHeaderBytes bounds a record header; a canonical one is under 200
// bytes. Bytes that hold no complete header within it are damage.
const maxHeaderBytes = 256

// racyWindow is how long after a directory listing an unchanged
// directory mtime still proves nothing: a segment created within the
// filesystem's timestamp granularity of the listing may not have moved
// the mtime (git's "racily clean" rule). It covers the coarsest common
// granularity, FAT's two seconds.
const racyWindow = 2 * time.Second

// rotateDivisor sets segment size under a byte cap: a writer seals its
// segment once the next record would take it past cap/rotateDivisor, so
// eviction, which removes whole segments, frees about an eighth of the
// cap at a time.
const rotateDivisor = 8

// scanChunk is the largest read of a segment scan.
const scanChunk = 64 << 10

// ErrCorrupt marks a record that failed envelope verification; callers
// normally never see it (Get turns it into a miss after quarantining).
var ErrCorrupt = errors.New("cas: corrupt entry")

// errShortHeader reports bytes that end before a header does: a record
// still being written, or one torn at the end of its segment.
var errShortHeader = fmt.Errorf("%w: truncated header", ErrCorrupt)

var errClosed = errors.New("cas: store closed")

// Stats counts a store's traffic since Open. All counters are monotone.
type Stats struct {
	// Hits counts Gets that returned a verified payload.
	Hits int64
	// Misses counts Gets that found no entry (including entries lost to
	// quarantine on the same call).
	Misses int64
	// Puts counts blobs written (idempotent re-puts of an indexed digest
	// are not counted; see PutsSkipped).
	Puts int64
	// PutsSkipped counts Puts that found the digest already indexed and
	// wrote nothing — the content-addressed fast path.
	PutsSkipped int64
	// Quarantined counts records this handle condemned into quarantine/:
	// failed verification, a torn write, or a Quarantine call.
	Quarantined int64
	// QuarantineDropped counts quarantined entries discarded because the
	// quarantine directory exceeded its cap (oldest dropped first).
	QuarantineDropped int64
	// Evictions counts indexed records dropped with the segments removed
	// to keep the store under its byte capacity (SetMaxBytes), oldest
	// first. Distinct from Quarantined: an eviction is a deliberate
	// capacity decision about good entries, a quarantine is a
	// verification failure — conflating them makes a corruption storm
	// read as a capacity problem and vice versa.
	Evictions int64
}

// loc is where one record lives: 16 bytes per index entry.
type loc struct {
	off int64
	seg uint32 // index into Store.segs
	n   uint32 // record bytes, header included
}

// segment is one segment file as this handle sees it.
type segment struct {
	name string
	f    *os.File
	id   uint32
	// own marks a segment this handle created: its records are indexed
	// as they are written, never scanned.
	own bool
	// end is how far the segment has been written (own) or scanned up
	// to a record boundary (foreign).
	end int64
	// sealed marks a segment this handle will never read further: its
	// writer sealed it or is gone, or the scan stopped at damage.
	sealed bool
	// damaged is set when a record of an own segment failed
	// verification; the writer then seals it, since its idea of the
	// segment's end can no longer be trusted.
	damaged atomic.Bool
}

// tomb names a condemned record by its place.
type tomb struct {
	seg string
	off int64
}

// Store is an on-disk content-addressed blob store rooted at one
// directory. It is safe for concurrent use by multiple goroutines and,
// through per-handle segments, flock and tombstones, by multiple
// handles and processes sharing the directory.
type Store struct {
	dir string

	hits, misses, puts, putsSkipped, quarantined, quarantineDropped atomic.Int64
	evictions                                                       atomic.Int64

	// quarantineLimit caps quarantine/ entries (0 = DefaultQuarantineLimit,
	// negative = unlimited).
	quarantineLimit atomic.Int64
	// maxBytes caps the summed size of segment files (<= 0 = unbounded).
	maxBytes atomic.Int64
	// approxBytes tracks the store's size as this handle sees it: seeded
	// by the listing in SetMaxBytes, advanced by each Put, and re-anchored
	// to the on-disk total at every eviction pass. With several writers
	// sharing the directory each estimate drifts between passes, so the
	// cap is enforced eventually, not instantaneously — the right trade
	// for a cache.
	approxBytes atomic.Int64

	// Lock order: wmu, then smu, then mu.

	// mu guards index, segs and closed; Gets hold it shared.
	mu     sync.RWMutex
	index  map[[sha256.Size]byte]loc
	segs   []*segment // by id; nil once dropped
	closed bool

	// smu serializes scans, the tombstone log, quarantine and changes to
	// the segment set; it guards the fields below.
	smu      sync.Mutex
	byName   map[string]uint32
	tombs    map[tomb]struct{}
	tlog     *os.File  // the tombstone log, once it exists
	tlogEnd  int64     // bytes of the log applied (whole lines)
	listed   time.Time // when the last directory listing began
	dirMtime time.Time // the directory mtime that listing saw
	buf      []byte    // scan window, grown up to scanChunk

	// wmu serializes this handle's appends and evictions; w is the
	// segment appends go to (nil before the first Put and after a seal).
	wmu sync.Mutex
	w   *segment
}

// Open creates (if needed) the store rooted at dir and indexes the
// segments already in it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		dir:    dir,
		index:  make(map[[sha256.Size]byte]loc),
		byName: make(map[string]uint32),
		tombs:  make(map[tomb]struct{}),
	}
	if err := s.refresh(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the store's file descriptors and its segment lock; the
// segment it wrote then reads as sealed to every other handle. Records
// are written by the time Put returns, so Close loses nothing. Get and
// Put fail after Close. A handle that is never closed stays correct:
// its segment reads as live until the process exits.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.smu.Lock()
	defer s.smu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.w = nil
	var first error
	for _, sg := range s.segs {
		if sg == nil {
			continue
		}
		if err := sg.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("cas: %w", err)
		}
	}
	if s.tlog != nil {
		s.tlog.Close() // read-only
	}
	return first
}

// SetQuarantineLimit caps how many quarantined entries are retained
// (oldest dropped beyond the cap). 0 restores DefaultQuarantineLimit;
// a negative limit disables pruning (unbounded, test use only).
func (s *Store) SetQuarantineLimit(n int) { s.quarantineLimit.Store(int64(n)) }

// QuarantineLimit reports the effective cap (-1 = unbounded).
func (s *Store) QuarantineLimit() int {
	n := int(s.quarantineLimit.Load())
	if n == 0 {
		return DefaultQuarantineLimit
	}
	if n < 0 {
		return -1
	}
	return n
}

// SetMaxBytes caps the summed size of the segment files (quarantine/
// has its own cap). While a cap is set, writers rotate to a new segment
// at cap/8, and when the store exceeds the cap the oldest sealed
// segments that no live writer holds are deleted until it fits; every
// indexed record they held counts in Stats.Evictions. The segment this
// handle is writing is sealed at once if it is already past the new
// rotation size, so it can be evicted like the rest. n <= 0 removes the
// cap.
func (s *Store) SetMaxBytes(n int64) {
	s.maxBytes.Store(n)
	if n <= 0 {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if w := s.w; w != nil && w.end > 0 && w.end >= n/rotateDivisor {
		s.sealLocked(w)
	}
	s.evictToCapLocked()
}

// MaxBytes reports the capacity cap (<= 0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// parseDigest vets and decodes the hex digest used as a content
// address: exactly 64 lowercase hex characters, the form sha256 digests
// are written in. Uppercase is rejected so one content address has one
// spelling.
func parseDigest(digest string) ([sha256.Size]byte, error) {
	if len(digest) != sha256.Size*2 {
		return [sha256.Size]byte{}, fmt.Errorf("cas: digest %q is not a sha256 hex digest", digest)
	}
	key, ok := decodeKey(digest)
	if !ok {
		return key, fmt.Errorf("cas: digest %q is not lowercase hex", digest)
	}
	return key, nil
}

// unhex maps a lowercase hex digit to its value and every other byte
// to 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c - 'a' + 10)
	}
	return t
}()

// decodeKey decodes 64 lowercase hex characters.
func decodeKey[T string | []byte](h T) (key [sha256.Size]byte, ok bool) {
	if len(h) != sha256.Size*2 {
		return key, false
	}
	for i := range key {
		hi, lo := unhex[h[2*i]], unhex[h[2*i+1]]
		if hi|lo > 0xf {
			return key, false
		}
		key[i] = hi<<4 | lo
	}
	return key, true
}

// lookup returns the location of key's record and its segment.
func (s *Store) lookup(key *[sha256.Size]byte) (loc, *segment, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return loc{}, nil, false, errClosed
	}
	l, ok := s.index[*key]
	if !ok {
		return loc{}, nil, false, nil
	}
	return l, s.segs[l.seg], true, nil
}

// Get returns the payload stored under digest. ok is false on a miss; a
// record that fails verification is quarantined and reported as a miss.
// The returned error is reserved for environmental failures (bad digest,
// unreadable directory or segment), never for bad content.
func (s *Store) Get(digest string) (payload []byte, ok bool, err error) {
	key, err := parseDigest(digest)
	if err != nil {
		return nil, false, err
	}
	l, sg, ok, err := s.lookup(&key)
	if err == nil && !ok {
		// Another writer may have stored it since the last look.
		if err = s.refresh(); err == nil {
			l, sg, ok, err = s.lookup(&key)
		}
	}
	if err != nil || !ok {
		if err == nil {
			s.misses.Add(1)
		}
		return nil, false, err
	}
	data := make([]byte, l.n)
	n, rerr := sg.f.ReadAt(data, l.off)
	switch {
	case rerr == nil || errors.Is(rerr, io.EOF):
	case errors.Is(rerr, os.ErrClosed) && !s.isClosed():
		// The segment was evicted while we read it.
		s.misses.Add(1)
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cas: %w", rerr)
	}
	rkey, payload, derr := decodeEnvelope(data[:n])
	if derr == nil && rkey != key {
		derr = fmt.Errorf("%w: record filed under another digest", ErrCorrupt)
	}
	if derr != nil {
		s.smu.Lock()
		s.condemnLocked(sg, l.off, int64(l.n), &key)
		s.smu.Unlock()
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return payload, true, nil
}

func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Put stores payload under digest with one append to this handle's
// segment; the record is indexed once the write has completed in full.
// Re-putting an indexed digest is a cheap no-op — content addressing
// guarantees the bytes are the same. A failed or short write seals the
// segment, so the next Put starts a new one.
func (s *Store) Put(digest string, payload []byte) error {
	key, err := parseDigest(digest)
	if err != nil {
		return err
	}
	if len(payload) > maxEntryBytes {
		return fmt.Errorf("cas: payload of %d bytes exceeds %d", len(payload), maxEntryBytes)
	}
	if s.indexed(&key) {
		s.putsSkipped.Add(1)
		return nil
	}
	rec := encodeEnvelope(digest, payload)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.indexed(&key) {
		s.putsSkipped.Add(1)
		return nil
	}
	w, err := s.writerLocked(len(rec))
	if err != nil {
		return err
	}
	off := w.end
	n, err := w.f.Write(rec)
	w.end += int64(n)
	if err != nil {
		s.sealLocked(w)
		return fmt.Errorf("cas: %w", err)
	}
	s.mu.Lock()
	s.index[key] = loc{off: off, seg: w.id, n: uint32(n)}
	s.mu.Unlock()
	s.puts.Add(1)
	// Write-through capacity check: only a successful write can push the
	// store over its cap, so this is the one place eviction triggers.
	if limit := s.maxBytes.Load(); limit > 0 && s.approxBytes.Add(int64(n)) > limit {
		s.evictToCapLocked()
	}
	return nil
}

func (s *Store) indexed(key *[sha256.Size]byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[*key]
	return ok
}

// writerLocked returns the segment the next record of need bytes goes
// to, sealing the current one first if it is damaged or the record
// would take it past the rotation size. A new segment is created under
// a temporary name, locked, then renamed, so no other handle ever sees
// a live segment unlocked. Callers hold wmu.
func (s *Store) writerLocked(need int) (*segment, error) {
	if w := s.w; w != nil {
		limit := s.maxBytes.Load()
		if !w.damaged.Load() && (limit <= 0 || w.end == 0 || w.end+int64(need) <= limit/rotateDivisor) {
			return w, nil
		}
		s.sealLocked(w)
	}
	if s.isClosed() {
		return nil, errClosed
	}
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	name := hex.EncodeToString(rnd[:]) + segExt
	tmp := filepath.Join(s.dir, "."+name+".new")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	err = flock(f, syscall.LOCK_EX|syscall.LOCK_NB)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, name))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("cas: new segment: %w", err)
	}
	w := &segment{name: name, f: f, own: true}
	s.smu.Lock()
	s.mu.Lock()
	w.id = uint32(len(s.segs))
	s.segs = append(s.segs, w)
	s.mu.Unlock()
	s.byName[name] = w.id
	s.smu.Unlock()
	s.w = w
	return w, nil
}

// sealLocked stops appends to w and releases its lock: other handles
// then read it as sealed, and eviction may remove it. Callers hold wmu.
func (s *Store) sealLocked(w *segment) {
	flock(w.f, syscall.LOCK_UN) // closing the file releases it too
	w.sealed = true
	if s.w == w {
		s.w = nil
	}
}

// flock applies how to f's open file description, retrying on EINTR.
func flock(f *os.File, how int) error {
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err != syscall.EINTR {
			return err
		}
	}
}

// writerAlive reports whether a writer holds f's segment lock, that is,
// whether the segment may still grow. Segments appear already locked
// and are never locked again once released, so a false answer is final.
func writerAlive(f *os.File) (bool, error) {
	switch err := flock(f, syscall.LOCK_SH|syscall.LOCK_NB); err {
	case nil:
		return false, flock(f, syscall.LOCK_UN)
	case syscall.EWOULDBLOCK:
		return true, nil
	default:
		return false, fmt.Errorf("cas: lock probe %s: %w", f.Name(), err)
	}
}

// refresh brings the index up to date with the directory: new segments,
// new tombstones, and bytes other writers appended since the last look.
func (s *Store) refresh() error {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.isClosed() {
		return errClosed
	}
	if err := s.listLocked(); err != nil {
		return err
	}
	if err := s.readTombstonesLocked(); err != nil {
		return err
	}
	for _, sg := range s.segs {
		if sg != nil && !sg.own && !sg.sealed {
			if err := s.scanLocked(sg); err != nil {
				return err
			}
		}
	}
	return nil
}

// listLocked opens segments that appeared in the directory and drops
// foreign ones that vanished (evicted by another handle). The listing is
// skipped while the directory's mtime is unchanged and older than the
// previous listing by more than racyWindow. Callers hold smu.
func (s *Store) listLocked() error {
	info, err := os.Stat(s.dir)
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	mtime := info.ModTime()
	if mtime.Equal(s.dirMtime) && s.listed.Sub(mtime) > racyWindow {
		return nil
	}
	s.listed = time.Now()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := e.Name()
		if name == tombstoneLog && s.tlog == nil {
			if s.tlog, err = openIfExists(filepath.Join(s.dir, name)); err != nil {
				return err
			}
			continue
		}
		if !strings.HasSuffix(name, segExt) {
			continue
		}
		present[name] = true
		if _, ok := s.byName[name]; ok {
			continue
		}
		f, err := openIfExists(filepath.Join(s.dir, name))
		if err != nil {
			return err
		}
		if f == nil {
			continue
		}
		sg := &segment{name: name, f: f}
		s.mu.Lock()
		sg.id = uint32(len(s.segs))
		s.segs = append(s.segs, sg)
		s.mu.Unlock()
		s.byName[name] = sg.id
	}
	for name, id := range s.byName {
		if !present[name] && !s.segs[id].own {
			s.dropLocked(id)
		}
	}
	s.dirMtime = mtime
	return nil
}

// openIfExists opens path for reading; a file that vanished since it
// was listed is (nil, nil).
func openIfExists(path string) (*os.File, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return f, nil
}

// dropLocked forgets segment id and every index entry into it, and
// returns how many entries that was. Callers hold smu.
func (s *Store) dropLocked(id uint32) int {
	sg := s.segs[id]
	n := 0
	s.mu.Lock()
	for k, l := range s.index {
		if l.seg == id {
			delete(s.index, k)
			n++
		}
	}
	s.segs[id] = nil
	s.mu.Unlock()
	delete(s.byName, sg.name)
	sg.f.Close() // a concurrent Get reading it sees ErrClosed: a miss
	return n
}

// readTombstonesLocked applies the tombstone log's new lines: each names
// a condemned record, which no scan indexes and which leaves the index
// if it is there. Callers hold smu.
func (s *Store) readTombstonesLocked() error {
	if s.tlog == nil {
		return nil
	}
	info, err := s.tlog.Stat()
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	if info.Size() <= s.tlogEnd {
		return nil
	}
	data := make([]byte, info.Size()-s.tlogEnd)
	n, err := s.tlog.ReadAt(data, s.tlogEnd)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("cas: %w", err)
	}
	data = data[:n]
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil // a line still being written
		}
		line := data[:i]
		data = data[i+1:]
		s.tlogEnd += int64(i + 1)
		fields := strings.Fields(string(line))
		if len(fields) != 3 {
			continue
		}
		off, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			continue
		}
		t := tomb{seg: fields[1], off: off}
		s.tombs[t] = struct{}{}
		id, known := s.byName[t.seg]
		key, keyed := decodeKey(fields[0])
		if !known || !keyed {
			continue
		}
		s.mu.Lock()
		if l, ok := s.index[key]; ok && l.seg == id && l.off == off {
			delete(s.index, key)
		}
		s.mu.Unlock()
	}
}

// scanLocked indexes the complete records sg gained since the last scan.
// At a partial record, on the first look and when nothing new arrived,
// it asks whether the segment's writer is still there: while it is, a
// partial record is pending; once it is gone the segment is sealed and
// a partial record left at its end is a torn write. Callers hold smu.
func (s *Store) scanLocked(sg *segment) error {
	start := sg.end
	size, err := fileSize(sg.f)
	if err != nil {
		return err
	}
	if err := s.scanTo(sg, size, false); err != nil || sg.sealed {
		return err
	}
	if sg.end == size && size != start && start != 0 {
		return nil
	}
	live, err := writerAlive(sg.f)
	if err != nil || live {
		return err
	}
	// The writer is gone for good, so the size is final now; it may have
	// completed a record since the first look.
	if size, err = fileSize(sg.f); err != nil {
		return err
	}
	if err := s.scanTo(sg, size, true); err != nil {
		return err
	}
	sg.sealed = true
	return nil
}

func fileSize(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("cas: %w", err)
	}
	return info.Size(), nil
}

// scanTo indexes the complete records of sg up to size. It stops at a
// partial record, condemning it as torn when final (its writer is
// gone), and at damage, which it condemns and which seals the segment:
// nothing past either can be located. Callers hold smu.
func (s *Store) scanTo(sg *segment, size int64, final bool) error {
	var win []byte // segment bytes from winOff
	var winOff int64
	off := sg.end
	for off < size {
		if need := min(off+maxHeaderBytes, size); off < winOff || need > winOff+int64(len(win)) {
			want := min(scanChunk, size-off)
			if int64(len(s.buf)) < want {
				s.buf = make([]byte, want)
			}
			n, err := sg.f.ReadAt(s.buf[:want], off)
			if err != nil && !errors.Is(err, io.EOF) {
				return fmt.Errorf("cas: read segment %s: %w", sg.name, err)
			}
			win, winOff = s.buf[:n], off
			if int64(n) < want {
				size = off + int64(n) // it shrank under us
			}
		}
		h, herr := parseHeader(win[off-winOff:])
		end := off + int64(h.size+h.n)
		_, condemned := s.tombs[tomb{sg.name, off}]
		if herr == nil && end <= size {
			if !condemned {
				s.mu.Lock()
				if _, dup := s.index[h.key]; !dup {
					s.index[h.key] = loc{off: off, seg: sg.id, n: uint32(end - off)}
				}
				s.mu.Unlock()
			}
			off = end
			continue
		}
		sg.end = off
		if !final && (herr == nil || errors.Is(herr, errShortHeader)) {
			return nil // a partial record, still being written
		}
		if !condemned {
			var key *[sha256.Size]byte
			if h.keyed {
				key = &h.key
			}
			s.condemnLocked(sg, off, min(size-off, maxHeaderBytes+maxEntryBytes), key)
		}
		sg.sealed = true
		return nil
	}
	sg.end = off
	return nil
}

// condemnLocked quarantines the record of n bytes at off in sg: its
// bytes are copied to quarantine/<digest>.<unixnano> (or
// <segment>-<offset>.<unixnano> when its header names no digest), a
// tombstone is appended to the log, and the index forgets it. The log's
// lock makes this happen once across handles: a record another handle
// condemned first is only forgotten. Evidence and tombstone are best
// effort — a record that cannot be condemned on disk still fails every
// later verification. Callers hold smu.
func (s *Store) condemnLocked(sg *segment, off, n int64, key *[sha256.Size]byte) {
	lf, err := os.OpenFile(filepath.Join(s.dir, tombstoneLog), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err == nil && flock(lf, syscall.LOCK_EX) != nil {
		lf.Close()
		err = syscall.ENOLCK
	}
	if err == nil {
		defer lf.Close() // releases the lock
		if s.tlog == nil {
			s.tlog, _ = openIfExists(lf.Name())
		}
	} else {
		lf = nil
	}
	// Best effort: a log that cannot be read only costs a second copy of
	// the evidence.
	_ = s.readTombstonesLocked()
	t := tomb{seg: sg.name, off: off}
	if _, dup := s.tombs[t]; !dup {
		name := sg.name + "-" + strconv.FormatInt(off, 10)
		if key != nil {
			name = hex.EncodeToString(key[:])
		}
		s.keepEvidence(name, sg, off, n)
		if lf != nil {
			digest := "-"
			if key != nil {
				digest = name
			}
			// One write, so concurrent appends never interleave; a lost
			// tombstone only means the record fails verification again.
			_, _ = fmt.Fprintf(lf, "%s %s %d\n", digest, sg.name, off)
		}
		s.tombs[t] = struct{}{}
		s.quarantined.Add(1)
	}
	if key != nil {
		s.mu.Lock()
		if l, ok := s.index[*key]; ok && l.seg == sg.id && l.off == off {
			delete(s.index, *key)
		}
		s.mu.Unlock()
	}
	if sg.own {
		sg.damaged.Store(true)
	}
}

// keepEvidence copies n bytes at off in sg into quarantine/ and prunes
// it to its cap. Callers hold smu.
func (s *Store) keepEvidence(name string, sg *segment, off, n int64) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, name+"."+strconv.FormatInt(time.Now().UnixNano(), 10))
	f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return
	}
	_, err = io.Copy(f, io.NewSectionReader(sg.f, off, n))
	if cerr := f.Close(); err != nil || cerr != nil {
		os.Remove(dst)
		return
	}
	s.pruneQuarantineLocked(qdir)
}

// Quarantine condemns the record indexed under digest, preserving its
// bytes for inspection. Callers use it when the payload verified at the
// envelope layer but failed a stricter application-level decode (Get
// quarantines envelope failures itself). Unindexed digests are a no-op.
func (s *Store) Quarantine(digest string) {
	key, err := parseDigest(digest)
	if err != nil {
		return
	}
	l, sg, ok, err := s.lookup(&key)
	if err != nil || !ok {
		return
	}
	s.smu.Lock()
	s.condemnLocked(sg, l.off, int64(l.n), &key)
	s.smu.Unlock()
}

// pruneQuarantineLocked drops the oldest quarantined entries beyond the
// cap. Quarantine names end in the nanosecond timestamp of the copy;
// entries without a parseable suffix sort first and go before dated
// ones. Callers hold smu.
func (s *Store) pruneQuarantineLocked(qdir string) {
	limit := s.QuarantineLimit()
	if limit < 0 {
		return
	}
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) <= limit {
		return
	}
	type aged struct {
		name string
		when int64
	}
	files := make([]aged, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var when int64
		if i := strings.LastIndexByte(e.Name(), '.'); i >= 0 {
			when, _ = strconv.ParseInt(e.Name()[i+1:], 10, 64)
		}
		files = append(files, aged{name: e.Name(), when: when})
	}
	if len(files) <= limit {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].when != files[j].when {
			return files[i].when < files[j].when
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-limit] {
		if os.Remove(filepath.Join(qdir, f.name)) == nil {
			s.quarantineDropped.Add(1)
		}
	}
}

// evictToCapLocked lists the segment files, re-anchors the size
// estimate to their total and, while it exceeds the cap, deletes the
// oldest (modification time, name as tiebreak) that no live writer
// holds. The segment this handle is writing holds the newest record, so
// it always survives. Callers hold wmu.
func (s *Store) evictToCapLocked() {
	limit := s.maxBytes.Load()
	if limit <= 0 {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		size int64
		when time.Time
	}
	var segs []aged
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, aged{name: e.Name(), size: info.Size(), when: info.ModTime()})
		total += info.Size()
	}
	if total > limit {
		sort.Slice(segs, func(i, j int) bool {
			if !segs[i].when.Equal(segs[j].when) {
				return segs[i].when.Before(segs[j].when)
			}
			return segs[i].name < segs[j].name
		})
		for _, sg := range segs {
			if total <= limit {
				break
			}
			if (s.w == nil || sg.name != s.w.name) && s.evictSegment(sg.name) {
				total -= sg.size
			}
		}
	}
	s.approxBytes.Store(total)
}

// evictSegment deletes the named segment unless a live writer holds it,
// counting the records this handle had indexed there as evictions.
// Callers hold wmu.
func (s *Store) evictSegment(name string) bool {
	f, err := openIfExists(filepath.Join(s.dir, name))
	if err != nil || f == nil {
		return false
	}
	defer f.Close()
	if live, err := writerAlive(f); err != nil || live {
		return false
	}
	if os.Remove(filepath.Join(s.dir, name)) != nil {
		return false
	}
	s.smu.Lock()
	if id, ok := s.byName[name]; ok {
		s.evictions.Add(int64(s.dropLocked(id)))
	}
	s.smu.Unlock()
	return true
}

// Len reports how many records the index holds after a refresh. It is
// an inspection helper, not a hot path.
func (s *Store) Len() (int, error) {
	if err := s.refresh(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index), nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Puts:              s.puts.Load(),
		PutsSkipped:       s.putsSkipped.Load(),
		Quarantined:       s.quarantined.Load(),
		QuarantineDropped: s.quarantineDropped.Load(),
		Evictions:         s.evictions.Load(),
	}
}

// encodeEnvelope wraps a payload in the versioned, checksummed record
// format, filed under digest:
//
//	mlperf-cas <version>\n
//	key <digest>\n
//	sha256 <hex of payload>\n
//	len <decimal payload length>\n
//	\n
//	<payload bytes>
func encodeEnvelope(digest string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := make([]byte, 0, maxHeaderBytes+len(payload))
	b = append(b, magic+" "...)
	b = strconv.AppendInt(b, EnvelopeVersion, 10)
	b = append(b, "\nkey "...)
	b = append(b, digest...)
	b = append(b, "\nsha256 "...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, "\nlen "...)
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	b = append(b, "\n\n"...)
	return append(b, payload...)
}

// header is a parsed record header; the record is size+n bytes long.
type header struct {
	key   [sha256.Size]byte
	keyed bool   // key was parsed (set even when a later line fails)
	sum   []byte // the checksum line's hex digits
	size  int    // header bytes, through the blank line
	n     int    // payload bytes
}

// parseHeader parses the record header at the start of data. Numbers
// must be in the canonical form encodeEnvelope writes, and the payload
// length must not exceed maxEntryBytes. Bytes that end before the
// header does return errShortHeader; anything else wrong is ErrCorrupt.
func parseHeader(data []byte) (header, error) {
	var h header
	hdr := data[:min(len(data), maxHeaderBytes)]
	rest := hdr
	line := func() ([]byte, error) {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			if len(data) >= maxHeaderBytes {
				return nil, fmt.Errorf("%w: no header in %d bytes", ErrCorrupt, maxHeaderBytes)
			}
			return nil, errShortHeader
		}
		l := rest[:i]
		rest = rest[i+1:]
		return l, nil
	}
	head, err := line()
	if err != nil {
		return h, err
	}
	verStr, ok := bytes.CutPrefix(head, []byte(magic+" "))
	version, vok := parseDecimal(verStr)
	if !ok || !vok {
		return h, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head)
	}
	if version != EnvelopeVersion {
		return h, fmt.Errorf("%w: envelope version %d, want %d", ErrCorrupt, version, EnvelopeVersion)
	}
	keyLine, err := line()
	if err != nil {
		return h, err
	}
	keyHex, ok := bytes.CutPrefix(keyLine, []byte("key "))
	if h.key, h.keyed = decodeKey(keyHex); !ok || !h.keyed {
		return h, fmt.Errorf("%w: bad key line %q", ErrCorrupt, keyLine)
	}
	sumLine, err := line()
	if err != nil {
		return h, err
	}
	if h.sum, ok = bytes.CutPrefix(sumLine, []byte("sha256 ")); !ok || len(h.sum) != sha256.Size*2 {
		return h, fmt.Errorf("%w: bad checksum line %q", ErrCorrupt, sumLine)
	}
	lenLine, err := line()
	if err != nil {
		return h, err
	}
	lenStr, ok := bytes.CutPrefix(lenLine, []byte("len "))
	if !ok {
		return h, fmt.Errorf("%w: bad length line %q", ErrCorrupt, lenLine)
	}
	n, ok := parseDecimal(lenStr)
	if !ok || n > maxEntryBytes {
		return h, fmt.Errorf("%w: bad length %q", ErrCorrupt, lenStr)
	}
	if blank, err := line(); err != nil {
		return h, err
	} else if len(blank) != 0 {
		return h, fmt.Errorf("%w: missing header separator", ErrCorrupt)
	}
	h.size, h.n = len(hdr)-len(rest), n
	return h, nil
}

// decodeEnvelope verifies one whole record — header, exact length and
// checksum — and returns the digest it is filed under and the payload
// (a subslice of data), or ErrCorrupt wrapped with the reason. It
// accepts only bytes encodeEnvelope would produce.
func decodeEnvelope(data []byte) (key [sha256.Size]byte, payload []byte, err error) {
	h, err := parseHeader(data)
	if err != nil {
		return key, nil, err
	}
	payload = data[h.size:]
	if len(payload) != h.n {
		return key, nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), h.n)
	}
	sum := sha256.Sum256(payload)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if !bytes.Equal(hexSum[:], h.sum) {
		return key, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return h.key, payload, nil
}

// parseDecimal parses a canonical non-negative decimal: digits only, no
// sign, no leading zero, at most 18 digits (so it cannot overflow).
func parseDecimal(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
