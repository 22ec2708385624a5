package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// clients is the closed loop's concurrency: each client sends its next
// request only after the previous one completed.
const clients = 2

// outcome is one completed request as the client saw it.
type outcome struct {
	kind    kind
	cells   int
	end     time.Time     // when the response was complete
	latency time.Duration // send to last byte
	ttfr    time.Duration // send to first record frame (streams only)
	err     error
}

// checker holds every record the run received, keyed by cell, so that
// records can be compared with each other as they arrive and with the
// reference engine once the timed windows are over.
type checker struct {
	mu    sync.Mutex
	cells map[sweep.CellKey]*firstCopy
	order []sweep.CellKey // first-arrival order
	bad   map[int64]error // failed request -> first reason
}

// firstCopy is the first body seen for a cell and the requests that
// carried it.
type firstCopy struct {
	body []byte
	reqs []int64
}

func newChecker() *checker {
	return &checker{cells: map[sweep.CellKey]*firstCopy{}, bad: map[int64]error{}}
}

// record files one compacted record body for cell k, carried by request
// id. A body that differs from the cell's first one fails the request.
func (c *checker) record(id int64, k sweep.CellKey, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.cells[k]
	if r == nil {
		c.cells[k] = &firstCopy{body: append([]byte(nil), body...), reqs: []int64{id}}
		c.order = append(c.order, k)
		return nil
	}
	r.reqs = append(r.reqs, id)
	if !bytes.Equal(r.body, body) {
		return fmt.Errorf("cell %s: record differs from an earlier response", cellName(k))
	}
	return nil
}

// fail marks a request failed, keeping its first reason.
func (c *checker) fail(id int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bad[id]; !ok {
		c.bad[id] = err
	}
}

// verify recomputes every received cell on a private store-less engine
// and fails each request that carried a record not byte-identical to
// the reference's JSON encoding of it.
func (c *checker) verify() error {
	c.mu.Lock()
	keys := append([]sweep.CellKey(nil), c.order...)
	c.mu.Unlock()
	ref, err := sweep.NewEngine(0).Cells(keys)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	for i, k := range keys {
		want, err := json.Marshal(ref[i])
		if err != nil {
			return err
		}
		c.mu.Lock()
		r := c.cells[k]
		c.mu.Unlock()
		if !bytes.Equal(r.body, want) {
			for _, id := range r.reqs {
				c.fail(id, fmt.Errorf("cell %s: record differs from the reference engine", cellName(k)))
			}
		}
	}
	return nil
}

// cellsReceived lists up to n of the cells received, in first-arrival order.
func (c *checker) cellsReceived(n int) []sweep.CellKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sweep.CellKey(nil), c.order[:min(n, len(c.order))]...)
}

// failures reports how many requests failed and up to n reasons.
func (c *checker) failures(n int) (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int64, 0, len(c.bad))
	for id := range c.bad {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []string
	for _, id := range ids[:min(n, len(ids))] {
		out = append(out, fmt.Sprintf("request %d: %v", id, c.bad[id]))
	}
	return len(ids), out
}

func cellName(k sweep.CellKey) string {
	return fmt.Sprintf("%s/%s@%d/b%d/%s", k.Benchmark, k.System, k.GPUs, k.Batch, k.Precision)
}

// client issues requests and checks their responses. Its buffers are
// reused across requests; one client serves one goroutine.
type client struct {
	http  *http.Client
	check *checker
	buf   bytes.Buffer
	rec   bytes.Buffer
	br    *bufio.Reader
}

// frameBuf bounds one stream frame line; summary frames carry cache
// and sharding stats and run to a few KiB.
const frameBuf = 64 << 10

// do sends req as request id to the front at base and checks the
// response: status 200, an X-Request-Id, a complete and non-partial
// body, and every record consistent with every other copy of its cell.
func (cl *client) do(base string, id int64, req request) outcome {
	out := outcome{kind: req.kind, cells: len(req.cells)}
	start := time.Now()
	resp, err := cl.http.Get(base + req.uri)
	if err != nil {
		out.err = err
		out.latency = time.Since(start)
		out.end = start.Add(out.latency)
		return out
	}
	defer resp.Body.Close()
	err = cl.checkHeaders(resp)
	switch {
	case err != nil:
		out.latency = time.Since(start)
	case req.kind == kindStream:
		var got [][]byte
		got, out.ttfr, err = cl.readStream(resp.Body, start, len(req.cells))
		out.latency = time.Since(start)
		for i := 0; err == nil && i < len(got); i++ {
			err = cl.check.record(id, req.cells[i], got[i])
		}
	default:
		cl.buf.Reset()
		_, err = cl.buf.ReadFrom(resp.Body)
		out.latency = time.Since(start)
		if err == nil {
			err = cl.checkUnary(id, req, cl.buf.Bytes())
		}
	}
	out.end = start.Add(out.latency)
	if err != nil {
		out.err = fmt.Errorf("%s %s: %w", req.kind, req.uri, err)
	}
	return out
}

func (cl *client) checkHeaders(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	if resp.Header.Get(telemetry.RequestIDHeader) == "" {
		return errors.New("response without " + telemetry.RequestIDHeader)
	}
	return nil
}

// checkUnary decodes a /v1/simulate or /v1/sweep body and files its
// records.
func (cl *client) checkUnary(id int64, req request, body []byte) error {
	var recs []json.RawMessage
	if req.kind == kindSimulate {
		var r struct{ Record json.RawMessage }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		recs = []json.RawMessage{r.Record}
	} else {
		var r struct {
			Records   []json.RawMessage
			Cells     int
			Completed int
			Partial   bool
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Partial || r.Cells != len(req.cells) || r.Completed != len(req.cells) {
			return fmt.Errorf("partial sweep: %d of %d cells", r.Completed, r.Cells)
		}
		recs = r.Records
	}
	if len(recs) != len(req.cells) {
		return fmt.Errorf("%d records for %d cells", len(recs), len(req.cells))
	}
	for i, raw := range recs {
		cl.rec.Reset()
		if err := json.Compact(&cl.rec, raw); err != nil {
			return err
		}
		if err := cl.check.record(id, req.cells[i], cl.rec.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// frame is the subset of a stream frame the client reads.
type frame struct {
	Type      string
	Index     int
	Record    json.RawMessage
	Cells     int
	Completed int
	Partial   bool
}

// readStream reads an NDJSON stream to its end and reassembles the
// record frames by index. Every index must arrive exactly once, and the
// stream must end in a complete, non-partial summary frame.
func (cl *client) readStream(body io.Reader, start time.Time, cells int) ([][]byte, time.Duration, error) {
	got := make([][]byte, cells)
	var ttfr time.Duration
	sawSummary := false
	if cl.br == nil {
		cl.br = bufio.NewReaderSize(body, frameBuf)
	} else {
		cl.br.Reset(body)
	}
	for {
		line, err := cl.br.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var f frame
			if jerr := json.Unmarshal(line, &f); jerr != nil {
				return nil, ttfr, fmt.Errorf("bad frame: %v", jerr)
			}
			switch f.Type {
			case "record":
				if ttfr == 0 {
					ttfr = time.Since(start)
				}
				if f.Index < 0 || f.Index >= cells || got[f.Index] != nil {
					return nil, ttfr, fmt.Errorf("record frame index %d repeated or out of range", f.Index)
				}
				var b bytes.Buffer
				if cerr := json.Compact(&b, f.Record); cerr != nil {
					return nil, ttfr, cerr
				}
				got[f.Index] = b.Bytes()
			case "summary":
				if f.Partial || f.Cells != cells || f.Completed != cells {
					return nil, ttfr, fmt.Errorf("partial stream: %d of %d cells", f.Completed, f.Cells)
				}
				sawSummary = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, ttfr, err
		}
	}
	if !sawSummary {
		return nil, ttfr, errors.New("stream ended without a summary frame")
	}
	for i, g := range got {
		if g == nil {
			return nil, ttfr, fmt.Errorf("stream missing record %d", i)
		}
	}
	return got, ttfr, nil
}
