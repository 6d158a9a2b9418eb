package sense

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func postReport(t *testing.T, srv *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/reports", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHandlerIngestAndMap(t *testing.T) {
	a := testAggregator(t, 0)
	srv := httptest.NewServer(NewHandler(a))
	defer srv.Close()

	wire, err := reportFor(2, 8, -300).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if resp := postReport(t, srv, wire); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// The served map equals the aggregator's own marshal.
	resp, err := srv.Client().Get(srv.URL + "/map")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want, _ := a.MapBytes()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("GET /map differs from MapBytes")
	}
	var m Map
	if err := m.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if m.Reports != 1 {
		t.Fatalf("served map has %d reports", m.Reports)
	}

	// Summary and stats decode as JSON.
	var sum Summary
	getJSON(t, srv, "/map/summary", &sum)
	if sum.Reports != 1 || sum.Bins != 8 {
		t.Fatalf("summary %+v", sum)
	}
	var st Stats
	getJSON(t, srv, "/stats", &st)
	if st.Ingested != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerRejections(t *testing.T) {
	a := testAggregator(t, 0)
	srv := httptest.NewServer(NewHandler(a))
	defer srv.Close()

	if resp := postReport(t, srv, []byte("not a report")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
	// Valid wire form, wrong grid: unprocessable.
	off, _ := reportFor(99, 8, 0).MarshalBinary()
	if resp := postReport(t, srv, off); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-grid status %d", resp.StatusCode)
	}
	// A body over the report cap never reaches the parser.
	huge := make([]byte, WireSize(MaxReportBins)+1)
	if resp := postReport(t, srv, huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize status %d", resp.StatusCode)
	}
	// The garbage and the out-of-grid report both count as errored, as
	// they would through IngestWire; the oversize body is never parsed.
	var st Stats
	getJSON(t, srv, "/stats", &st)
	if st.Errored != 2 || st.Ingested != 0 {
		t.Fatalf("stats %+v, want 2 errored and none ingested", st)
	}
}

func TestHandlerBackpressure(t *testing.T) {
	a := testAggregator(t, 10)
	srv := httptest.NewServer(NewHandler(a))
	defer srv.Close()
	wire, _ := reportFor(0, 8, 0).MarshalBinary()
	resp := postReport(t, srv, wire)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Fatal("no error body")
	}
}
