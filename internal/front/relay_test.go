package front

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
)

// fakeBackend is a backend that answers /v1/sweep with sweepBody and
// /v1/sweep/stream with streamLines, one per line, whatever cells it
// is asked for.
func fakeBackend(t *testing.T, sweepBody string, streamLines ...string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(sweepBody))
	})
	mux.HandleFunc("/v1/sweep/stream", func(w http.ResponseWriter, r *http.Request) {
		for _, l := range streamLines {
			w.Write([]byte(l + "\n"))
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// frontOver is a front whose only backend is url.
func frontOver(t *testing.T, url string) *httptest.Server {
	t.Helper()
	fr, err := New(Config{Backends: []string{url}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	ts := httptest.NewServer(fr.Handler())
	t.Cleanup(ts.Close)
	return ts
}

const twoCells = "benchmarks=res50_tf,ncf_py&gpus=1"

// A backend stream whose record index is out of range or repeated ends
// the client's stream in a typed partial summary that keeps the good
// record, and the front stays up.
func TestFrontStreamRejectsBadBackendIndex(t *testing.T) {
	good := `{"type":"record","index":0,"record":{"Benchmark":"a"}}`
	summary := `{"type":"summary","cells":2,"completed":2}`
	for name, bad := range map[string]string{
		"out of range": `{"type":"record","index":99,"record":{}}`,
		"repeated":     good,
	} {
		t.Run(name, func(t *testing.T) {
			fts := frontOver(t, fakeBackend(t, "", good, bad, summary).URL)
			code, body, _ := get(t, fts.URL+"/v1/sweep/stream?"+twoCells)
			if code != http.StatusOK {
				t.Fatalf("stream = %d (%s)", code, body)
			}
			lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
			if len(lines) != 2 || lines[0] != good {
				t.Fatalf("stream %q, want the good record then a summary", lines)
			}
			var sum serve.StreamFrame
			if err := json.Unmarshal([]byte(lines[1]), &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Type != "summary" || !sum.Partial || sum.Cells != 2 || sum.Completed != 1 ||
				len(sum.Failures) != 1 || !strings.Contains(sum.Failures[0], name) {
				t.Fatalf("summary %+v, want a partial 1-of-2 run failing with %q", sum, name)
			}
			if code, _, _ := get(t, fts.URL+"/healthz"); code != http.StatusOK {
				t.Fatalf("front healthz = %d after a bad backend frame", code)
			}
		})
	}
}

// A unary sub-response with fewer records than its slice has cells is a
// failed slice, not a panic: the merged response is partial, names
// both counts and keeps the single-process shape of zero records.
func TestFrontSweepShortSubResponseIsPartial(t *testing.T) {
	short := `{"records":[{"Benchmark":"a"}],"cells":2,"completed":2,"partial":false,"canceled":false}`
	fts := frontOver(t, fakeBackend(t, short).URL)
	code, body, _ := get(t, fts.URL+"/v1/sweep?"+twoCells)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d (%s)", code, body)
	}
	var merged serve.SweepResponse
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatal(err)
	}
	if !merged.Partial || merged.Cells != 2 || merged.Completed != 0 || len(merged.Failures) != 1 ||
		!strings.Contains(merged.Failures[0], "1 records for 2 cells") {
		t.Fatalf("merged %+v, want a partial run naming 1 record for 2 cells", merged)
	}
	if len(merged.Records) != 2 || merged.Records[0] != (sweep.Record{}) || merged.Records[1] != (sweep.Record{}) {
		t.Fatalf("records %+v, want two zero records", merged.Records)
	}
}

// relayIndices maps local index i of a cells-long slice to a global
// index with a different digit count, so a rewrite is never a no-op.
func relayIndices(cells int) []int {
	idx := make([]int, cells)
	for i := range idx {
		idx[i] = 1000 + 7*i
	}
	return idx
}

// FuzzRelayRecordFrame checks relayRecordFrame against a plain reading
// of its contract: it never panics; it accepts a line exactly when the
// line is valid JSON starting with the record-frame prefix and a
// decimal index that is in range and not yet seen; and an accepted line
// is the input with only the index digits replaced.
func FuzzRelayRecordFrame(f *testing.F) {
	for _, line := range []string{
		`{"type":"record","index":0,"record":{"Benchmark":"MLPf_Res50_TF"}}`,
		`{"type":"record","index":3 ,"record":{}}`,
		`{"type":"record","index":99,"record":{}}`,
		`{"type":"record","index":-1,"record":{}}`,
		`{"type":"record","index":"1","record":{}}`,
		`{"type":"record","index":01,"record":{}}`,
		`{"type":"record","index":1.5,"record":{}}`,
		`{"type":"record","index":1e0,"record":{}}`,
		`{"type":"record","index":2}`,
		`{"type":"record","index":2`,
		`{"type":"record","index":`,
		`{"type":"summary","cells":2}`,
	} {
		f.Add([]byte(line), uint8(4), uint8(0b0010))
	}
	f.Fuzz(func(t *testing.T, line []byte, cells, seenMask uint8) {
		indices := relayIndices(int(cells%9) + 1)
		seen := make([]bool, len(indices))
		for i := range seen {
			seen[i] = seenMask&(1<<i) != 0
		}
		before := append([]bool(nil), seen...)
		in := append([]byte(nil), line...)

		out, err := relayRecordFrame(line, indices, seen)

		if !bytes.Equal(line, in) {
			t.Fatal("input line modified")
		}
		rest, prefixed := bytes.CutPrefix(line, recordFramePrefix)
		digits := 0
		for digits < len(rest) && '0' <= rest[digits] && rest[digits] <= '9' {
			digits++
		}
		local, aerr := strconv.Atoi(string(rest[:digits]))
		want := prefixed && digits > 0 && aerr == nil && local < len(indices) && !before[local] &&
			digits < len(rest) && strings.IndexByte(",} \t\r\n", rest[digits]) >= 0 && json.Valid(line)
		if (err == nil) != want {
			t.Fatalf("relayRecordFrame(%q) err = %v, want accepted = %v", line, err, want)
		}
		if err != nil {
			for i := range seen {
				if seen[i] != before[i] {
					t.Fatalf("rejected line %q marked index %d seen", line, i)
				}
			}
			return
		}
		expect := append(append([]byte(nil), recordFramePrefix...), strconv.Itoa(indices[local])...)
		expect = append(expect, rest[digits:]...)
		if !bytes.Equal(out, expect) {
			t.Fatalf("relayed %q as %q, want %q", line, out, expect)
		}
		if !json.Valid(out) {
			t.Fatalf("relayed line %q is not valid JSON", out)
		}
		if !seen[local] {
			t.Fatalf("accepted index %d not marked seen", local)
		}
		if _, err := relayRecordFrame(line, indices, seen); err == nil {
			t.Fatalf("line %q accepted twice", line)
		}
	})
}
