package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"record":"hello"}`)
	d := digestOf(payload)

	if _, ok, err := s.Get(d); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := s.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(d)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
	// Idempotent re-put takes the content-addressed fast path.
	if err := s.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.PutsSkipped != 1 || st.Quarantined != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 put / 1 skipped / 0 quarantined", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

func TestBadDigestRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"", "abc", "zz" + digestOf(nil)[2:]} {
		if _, _, err := s.Get(d); err == nil {
			t.Errorf("Get(%q): no error", d)
		}
		if err := s.Put(d, nil); err == nil {
			t.Errorf("Put(%q): no error", d)
		}
	}
}

// TestCorruptionQuarantined proves the hard promise of the store: no
// damaged entry is ever returned. Every corruption mode reads as a miss,
// the bytes land in quarantine/, and a fresh Put repairs the slot.
func TestCorruptionQuarantined(t *testing.T) {
	// Each mod damages the record of n bytes at off in the segment at
	// path, while the handle that wrote it is still live.
	corruptions := []struct {
		name string
		mod  func(path string, off, n int64) error
	}{
		{"truncated", func(p string, off, n int64) error {
			return os.Truncate(p, off+n/2)
		}},
		{"bit flip", func(p string, off, n int64) error {
			return rewrite(p, func(data []byte) []byte {
				data[off+n-1] ^= 0x40
				return data
			})
		}},
		{"bad magic", func(p string, off, n int64) error {
			return os.WriteFile(p, []byte("not-a-cas-file\n"), 0o644)
		}},
		{"future version", func(p string, off, n int64) error {
			return rewrite(p, func(data []byte) []byte {
				return bytes.Replace(data, []byte("mlperf-cas 2"), []byte("mlperf-cas 99"), 1)
			})
		}},
		{"empty file", func(p string, off, n int64) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("payload for " + tc.name)
			d := digestOf(payload)
			if err := s.Put(d, payload); err != nil {
				t.Fatal(err)
			}
			if err := tc.mod(recordAt(t, s, d)); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(d)
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if ok {
				t.Fatalf("corrupt entry returned as a hit: %q", got)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Errorf("stats %+v, want 1 quarantined", st)
			}
			q, err := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*"))
			if err != nil || len(q) != 1 {
				t.Errorf("quarantine evidence: %v, %v", q, err)
			}
			// The slot is reusable: a fresh Put and Get succeed.
			if err := s.Put(d, payload); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get(d); !ok {
				t.Error("slot unusable after quarantine + re-put")
			}
			// The condemned record stays condemned for later handles, and
			// the re-put record is what they serve.
			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok, err := fresh.Get(d); err != nil || !ok || !bytes.Equal(got, payload) {
				t.Errorf("fresh handle: ok=%v err=%v", ok, err)
			}
			if st := fresh.Stats(); st.Quarantined != 0 {
				t.Errorf("fresh handle re-quarantined: %+v", st)
			}
		})
	}
}

// rewrite replaces the file at path with edit of its contents.
func rewrite(path string, edit func([]byte) []byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, edit(data), 0o644)
}

// recordAt locates the record s has indexed under d: its segment file,
// offset and length.
func recordAt(t *testing.T, s *Store, d string) (path string, off, n int64) {
	t.Helper()
	key, err := parseDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	l, sg, ok, err := s.lookup(&key)
	if err != nil || !ok {
		t.Fatalf("%s not indexed: %v", d[:8], err)
	}
	return filepath.Join(s.Dir(), sg.name), l.off, int64(l.n)
}

func TestEnvelopeRejectsLengthMismatch(t *testing.T) {
	env := encodeEnvelope(digestOf([]byte("abc")), []byte("abc"))
	env = bytes.Replace(env, []byte("len 3"), []byte("len 2"), 1)
	if _, _, err := decodeEnvelope(env); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				payload := []byte(fmt.Sprintf("blob %d", i))
				d := digestOf(payload)
				if err := s.Put(d, payload); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(d)
				if err != nil || !ok || !bytes.Equal(got, payload) {
					t.Errorf("blob %d: ok=%v err=%v", i, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n2, err := s.Len(); err != nil || n2 != n {
		t.Errorf("Len = %d, %v; want %d", n2, err, n)
	}
}

// TestConcurrentHandles drives several handles over one directory at
// once, with and without a byte cap: a Get returns the exact payload or
// a miss, never an error, and without a cap every handle finally reads
// every record any of them wrote.
func TestConcurrentHandles(t *testing.T) {
	for _, capped := range []bool{false, true} {
		t.Run(fmt.Sprintf("capped=%v", capped), func(t *testing.T) {
			dir := t.TempDir()
			const handles, n = 4, 64
			payload := func(i int) []byte { return []byte(fmt.Sprintf("shared blob %d", i)) }
			var stores []*Store
			for h := 0; h < handles; h++ {
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if capped {
					s.SetMaxBytes(4 << 10)
				}
				stores = append(stores, s)
			}
			var wg sync.WaitGroup
			for h, s := range stores {
				wg.Add(1)
				go func(h int, s *Store) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						j := (i*7 + h*13) % n
						if err := s.Put(digestOf(payload(j)), payload(j)); err != nil {
							t.Error(err)
							return
						}
						k := (i*11 + h) % n
						got, ok, err := s.Get(digestOf(payload(k)))
						if err != nil || (ok && !bytes.Equal(got, payload(k))) {
							t.Errorf("handle %d blob %d: ok=%v err=%v", h, k, ok, err)
							return
						}
					}
				}(h, s)
			}
			wg.Wait()
			for h, s := range stores {
				for i := 0; i < n && !capped; i++ {
					if got, ok, err := s.Get(digestOf(payload(i))); err != nil || !ok || !bytes.Equal(got, payload(i)) {
						t.Fatalf("handle %d blob %d after the writes: ok=%v err=%v", h, i, ok, err)
					}
				}
				if st := s.Stats(); st.Quarantined != 0 {
					t.Errorf("handle %d quarantined %d records", h, st.Quarantined)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCrossStoreSharing is the cross-process story in miniature: two
// Store handles over one directory see each other's writes.
func TestCrossStoreSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared")
	d := digestOf(payload)
	if err := a.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get(d)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("second handle misses the first's write: ok=%v err=%v", ok, err)
	}
}

// TestScanSpansChunks pins index rebuilding across scan reads: a handle
// opened over a segment several scan chunks long indexes every record,
// and picks up a live writer's later appends on a miss.
func TestScanSpansChunks(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := func(from, to int) {
		for i := from; i < to; i++ {
			p := []byte(fmt.Sprintf("record %d %s", i, strings.Repeat("x", i%97)))
			if err := w.Put(digestOf(p), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 2000 // several scanChunks of records
	put(0, n)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Len(); err != nil || got != n {
		t.Fatalf("reader indexed %d records (%v), want %d", got, err, n)
	}
	put(n, 2*n)
	for i := 0; i < 2*n; i++ {
		p := []byte(fmt.Sprintf("record %d %s", i, strings.Repeat("x", i%97)))
		if got, ok, err := r.Get(digestOf(p)); err != nil || !ok || !bytes.Equal(got, p) {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if st := r.Stats(); st.Quarantined != 0 || st.Hits != 2*n {
		t.Errorf("reader stats %+v, want %d hits and nothing quarantined", st, 2*n)
	}
}

// TestQuarantineBounded proves repeated corruption cannot grow disk
// without limit: quarantine/ holds at most the configured cap, the
// oldest entries are dropped first, and the drops are counted.
func TestQuarantineBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 5
	s.SetQuarantineLimit(limit)

	const rounds = 3 * limit
	var digests []string
	for i := 0; i < rounds; i++ {
		payload := []byte(fmt.Sprintf("payload %d", i))
		d := digestOf(payload)
		digests = append(digests, d)
		if err := s.Put(d, payload); err != nil {
			t.Fatal(err)
		}
		// Corrupt it in place, then read it back: the damaged entry is
		// quarantined, and quarantine/ is pruned past the cap.
		smash(t, s, d)
		if _, ok, err := s.Get(d); err != nil || ok {
			t.Fatalf("round %d: corrupt entry ok=%v err=%v", i, ok, err)
		}
	}

	q, err := filepath.Glob(filepath.Join(dir, quarantineDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) > limit {
		t.Errorf("quarantine holds %d entries, cap is %d", len(q), limit)
	}
	st := s.Stats()
	if st.Quarantined != rounds {
		t.Errorf("quarantined %d, want %d", st.Quarantined, rounds)
	}
	if want := int64(rounds - limit); st.QuarantineDropped != want {
		t.Errorf("dropped %d, want %d", st.QuarantineDropped, want)
	}
	// The survivors are the newest entries.
	for _, d := range digests[:rounds-limit] {
		if m, _ := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*")); len(m) != 0 {
			t.Errorf("old quarantined entry %s survived pruning", d)
		}
	}
	for _, d := range digests[rounds-limit:] {
		if m, _ := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*")); len(m) != 1 {
			t.Errorf("new quarantined entry %s was dropped", d)
		}
	}
}

// TestQuarantineLimitKnob pins the knob's contract: 0 is the default
// cap, negatives disable pruning.
func TestQuarantineLimitKnob(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.QuarantineLimit(); got != DefaultQuarantineLimit {
		t.Errorf("default limit %d, want %d", got, DefaultQuarantineLimit)
	}
	s.SetQuarantineLimit(-1)
	if got := s.QuarantineLimit(); got != -1 {
		t.Errorf("unbounded limit %d, want -1", got)
	}
	s.SetQuarantineLimit(7)
	if got := s.QuarantineLimit(); got != 7 {
		t.Errorf("limit %d, want 7", got)
	}
}

// smash overwrites the start of d's record in place with garbage.
func smash(t *testing.T, s *Store, d string) {
	t.Helper()
	path, off, _ := recordAt(t, s, d)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("garbage"), off); err != nil {
		t.Fatal(err)
	}
}

// recordSize reports the on-disk size of one stored record.
func recordSize(t *testing.T, s *Store, d string) int64 {
	t.Helper()
	_, _, n := recordAt(t, s, d)
	return n
}

// age backdates the segment holding d so eviction order is
// deterministic regardless of filesystem timestamp granularity.
func age(t *testing.T, s *Store, d string, secondsAgo int) {
	t.Helper()
	path, _, _ := recordAt(t, s, d)
	when := time.Now().Add(-time.Duration(secondsAgo) * time.Second)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
}

// SetMaxBytes on an over-capacity store evicts oldest-first until it
// fits, counting each removal — and only counts removals of intact
// entries, under Evictions. Each entry is written by its own handle,
// closed afterwards, so each sits alone in a sealed segment.
func TestSetMaxBytesEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	var digests []string
	for i := 0; i < 5; i++ {
		w, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		d := digestOf(p)
		if err := w.Put(d, p); err != nil {
			t.Fatal(err)
		}
		age(t, w, d, 100-i) // entry 0 oldest, entry 4 newest
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := recordSize(t, s, digests[0])

	// Room for two entries plus slack smaller than a third.
	s.SetMaxBytes(2*size + size/2)

	st := s.Stats()
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	for i, d := range digests {
		_, ok, err := s.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := i >= 3; ok != want {
			t.Fatalf("entry %d present=%v, want %v (oldest three must go first)", i, ok, want)
		}
	}
	if st.Quarantined != 0 {
		t.Fatalf("capacity eviction bled into quarantined: %+v", st)
	}
}

// A Put that overflows the cap triggers eviction on the spot; the entry
// just written survives (it is the newest).
func TestPutOverflowEvictsOnWriteThrough(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(i, ageS int) string {
		p := []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		d := digestOf(p)
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
		age(t, s, d, ageS)
		return d
	}
	d0 := put(0, 100)
	size := recordSize(t, s, d0)
	s.SetMaxBytes(2*size + size/2)
	d1 := put(1, 50)
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("under-cap puts evicted: %+v", st)
	}
	d2 := put(2, 0)

	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the overflow put)", st.Evictions)
	}
	if _, ok, _ := s.Get(d0); ok {
		t.Fatal("oldest entry survived the overflow")
	}
	for _, d := range []string{d1, d2} {
		if _, ok, _ := s.Get(d); !ok {
			t.Fatalf("entry %s evicted though it fit", d[:8])
		}
	}
}

// Quarantines are not evictions: a corrupt entry moved aside must count
// under Quarantined only, and quarantined bytes do not occupy capacity.
func TestQuarantineDoesNotCountAsEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"cell":"good"}`)
	bad := []byte(`{"cell":"bad"}`)
	gd, bd := digestOf(good), digestOf(bad)
	for d, p := range map[string][]byte{gd: good, bd: bad} {
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one entry on disk, then read it: quarantine path.
	smash(t, s, bd)
	if _, ok, err := s.Get(bd); ok || err != nil {
		t.Fatalf("corrupt get: ok=%v err=%v", ok, err)
	}

	// A cap large enough for the surviving entry: the quarantined bytes
	// must neither count toward capacity nor be deleted by the scan.
	s.SetMaxBytes(2 * recordSize(t, s, gd))
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 — quarantines must not count as evictions", st.Evictions)
	}
	if _, ok, _ := s.Get(gd); !ok {
		t.Fatal("intact entry lost")
	}
	qdir := filepath.Join(s.Dir(), quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir entries = %d (%v), want 1 — eviction must not touch quarantine", len(entries), err)
	}
}

// TestGetBoundsEntryRead proves no record is read into memory beyond
// maxEntryBytes: a header announcing a longer payload is quarantined as
// corrupt before anything is allocated for it, while a directory where
// a segment should be stays an environmental error that leaves the path
// alone.
func TestGetBoundsEntryRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := digestOf([]byte("big"))
	hdr := bytes.Replace(encodeEnvelope(big, nil), []byte("len 0"),
		[]byte("len "+strconv.Itoa(maxEntryBytes+1)), 1)
	seg := filepath.Join(s.Dir(), "big"+segExt)
	if err := os.WriteFile(seg, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	// A sparse file: the whole announced payload on paper, no disk to
	// speak of.
	if err := os.Truncate(seg, int64(len(hdr))+maxEntryBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(big); ok || err != nil {
		t.Fatalf("oversized entry: ok=%v err=%v, want a clean miss", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 quarantined / 1 miss", st)
	}
	if q, _ := filepath.Glob(filepath.Join(s.Dir(), quarantineDir, big+".*")); len(q) != 1 {
		t.Errorf("quarantine evidence %v, want one copy", q)
	}

	dir := filepath.Join(s.Dir(), "dir"+segExt)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(digestOf([]byte("dir"))); ok || err == nil {
		t.Fatalf("directory at a segment path: ok=%v err=%v, want an error", ok, err)
	}
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		t.Errorf("directory at a segment path was moved: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats %+v, want the directory left out of quarantine", st)
	}
}

// TestUppercaseDigestRejected pins that one content address names one
// file: the uppercase spelling of a valid digest is refused by Get and
// Put, so it can never create a second entry for the same content.
func TestUppercaseDigestRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("case")
	d := digestOf(payload)
	if err := s.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	upper := strings.ToUpper(d)
	if err := s.Put(upper, payload); err == nil {
		t.Error("Put accepted an uppercase digest")
	}
	if _, _, err := s.Get(upper); err == nil {
		t.Error("Get accepted an uppercase digest")
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}
