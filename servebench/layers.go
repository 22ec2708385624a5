package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
)

// tracer times calls into each layer's public surface from outside it:
// the front's handler and its backend transport, each backend's
// handler, and the disk tier under the breaker. Counters are monotone;
// the runner reads them at the edges of each timed window and keeps
// the difference.
type tracer struct {
	frontReqs, frontNs, hopNs     atomic.Int64
	serveReqs, serveNs, serveByte atomic.Int64
	gets, getHits, getNs          atomic.Int64
	puts, putNs                   atomic.Int64

	// timing is set while a timed window runs; simulated keys are only
	// collected then.
	timing atomic.Bool
	mu     sync.Mutex
	simmed []sweep.CellKey // distinct keys written through, capped
	seen   map[sweep.CellKey]bool
}

// simReplayCap bounds how many simulated keys the sim replay re-runs.
const simReplayCap = 1000

func newTracer() *tracer { return &tracer{seen: map[sweep.CellKey]bool{}} }

// layerCounts is a copy of the tracer's counters.
type layerCounts struct {
	frontReqs, frontNs, hopNs     int64
	serveReqs, serveNs, serveByte int64
	gets, getHits, getNs          int64
	puts, putNs                   int64
}

func (t *tracer) counts() layerCounts {
	return layerCounts{
		frontReqs: t.frontReqs.Load(), frontNs: t.frontNs.Load(), hopNs: t.hopNs.Load(),
		serveReqs: t.serveReqs.Load(), serveNs: t.serveNs.Load(), serveByte: t.serveByte.Load(),
		gets: t.gets.Load(), getHits: t.getHits.Load(), getNs: t.getNs.Load(),
		puts: t.puts.Load(), putNs: t.putNs.Load(),
	}
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		frontReqs: a.frontReqs - b.frontReqs, frontNs: a.frontNs - b.frontNs, hopNs: a.hopNs - b.hopNs,
		serveReqs: a.serveReqs - b.serveReqs, serveNs: a.serveNs - b.serveNs, serveByte: a.serveByte - b.serveByte,
		gets: a.gets - b.gets, getHits: a.getHits - b.getHits, getNs: a.getNs - b.getNs,
		puts: a.puts - b.puts, putNs: a.putNs - b.putNs,
	}
}

func (a layerCounts) add(b layerCounts) layerCounts {
	return layerCounts{
		frontReqs: a.frontReqs + b.frontReqs, frontNs: a.frontNs + b.frontNs, hopNs: a.hopNs + b.hopNs,
		serveReqs: a.serveReqs + b.serveReqs, serveNs: a.serveNs + b.serveNs, serveByte: a.serveByte + b.serveByte,
		gets: a.gets + b.gets, getHits: a.getHits + b.getHits, getNs: a.getNs + b.getNs,
		puts: a.puts + b.puts, putNs: a.putNs + b.putNs,
	}
}

// ---- front ----

// hopsKey carries a request's *hops from the front handler wrapper to
// the transport wrapper through the request context.
type hopsKey struct{}

// hops collects the backend round trips one front request made.
type hops struct {
	mu  sync.Mutex
	ivs [][2]time.Time
}

func (h *hops) add(start, end time.Time) {
	h.mu.Lock()
	h.ivs = append(h.ivs, [2]time.Time{start, end})
	h.mu.Unlock()
}

// covered is the length of the union of the round-trip intervals:
// parallel sub-requests overlap, so summing them would overcount.
func (h *hops) covered() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	ivs := h.ivs
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv[0].After(cur[1]):
			if iv[1].After(cur[1]) {
				cur[1] = iv[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = iv
		}
	}
	if len(ivs) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// frontHandler times the front's whole handler and, through the
// request context, the backend round trips it makes.
func (t *tracer) frontHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs := &hops{}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), hopsKey{}, hs)))
		t.frontNs.Add(int64(time.Since(start)))
		t.hopNs.Add(int64(hs.covered()))
		t.frontReqs.Add(1)
	})
}

// hopTransport times each backend round trip from dial to the close of
// its body, so a streamed sub-request counts for as long as it streams.
// Round trips outside a client request (health probes) pass untimed.
type hopTransport struct{ next http.RoundTripper }

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hs, _ := req.Context().Value(hopsKey{}).(*hops)
	if hs == nil {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		hs.add(start, time.Now())
		return resp, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { hs.add(start, time.Now()) }}
	return resp, nil
}

// hopBody ends its round trip's interval when the front closes it.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// ---- serve ----

// serveHandler times a backend's whole handler and counts the bytes it
// writes. Health probes pass untimed.
func (t *tracer) serveHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.serveNs.Add(int64(time.Since(start)))
		t.serveByte.Add(cw.n)
		t.serveReqs.Add(1)
	})
}

// countingWriter counts body bytes and keeps the streaming endpoint's
// per-frame flushes working through the wrap.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---- cas ----

// timedStore is a serve.FallibleStore that times the disk tier's reads
// and writes. It sits under the breaker, where serve.New puts the
// DiskStore.
type timedStore struct {
	inner serve.FallibleStore
	t     *tracer
}

func (t *tracer) store(inner serve.FallibleStore) serve.FallibleStore {
	return timedStore{inner: inner, t: t}
}

func (s timedStore) GetE(k sweep.CellKey) (sweep.Record, bool, error) {
	start := time.Now()
	rec, ok, err := s.inner.GetE(k)
	s.t.getNs.Add(int64(time.Since(start)))
	s.t.gets.Add(1)
	if ok {
		s.t.getHits.Add(1)
	}
	return rec, ok, err
}

func (s timedStore) PutE(k sweep.CellKey, rec sweep.Record) error {
	start := time.Now()
	err := s.inner.PutE(k, rec)
	s.t.putNs.Add(int64(time.Since(start)))
	s.t.puts.Add(1)
	if s.t.timing.Load() {
		s.t.noteSimulated(k)
	}
	return err
}

func (s timedStore) Stats() sweep.TierStats { return s.inner.Stats() }

// noteSimulated remembers a key the engine simulated (every successful
// simulation is written through exactly once), for the sim replay.
func (t *tracer) noteSimulated(k sweep.CellKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.simmed) < simReplayCap && !t.seen[k] {
		t.seen[k] = true
		t.simmed = append(t.simmed, k)
	}
}

func (t *tracer) simulated() []sweep.CellKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]sweep.CellKey(nil), t.simmed...)
}
