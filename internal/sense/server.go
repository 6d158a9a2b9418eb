package sense

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/uwsdr/tinysdr/internal/httpjson"
)

// NewHandler serves an aggregator over HTTP, next to the fleet campaign
// API in shape and helpers:
//
//	POST /reports      ingest one binary report (TSPR body)
//	GET  /map          the aggregated occupancy map (binary TSOM)
//	GET  /map/summary  the map condensed to JSON
//	GET  /stats        ingest counters as JSON
//
// A report body over the wire-size cap is rejected before buffering, and
// budget exhaustion surfaces as 429 so slow-consumer backpressure reaches
// remote producers through standard HTTP semantics.
func NewHandler(a *Aggregator) http.Handler {
	maxBody := int64(WireSize(MaxReportBins))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /reports", func(w http.ResponseWriter, r *http.Request) {
		n := int(r.ContentLength)
		if r.ContentLength < 0 || r.ContentLength > maxBody {
			httpjson.Error(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("sense: report body of %d bytes over %d", r.ContentLength, maxBody))
			return
		}
		// Admission happens before the body is buffered: the budget bounds
		// bytes held, not just bytes parsed.
		if err := a.Admit(n); err != nil {
			httpjson.Error(w, http.StatusTooManyRequests, err)
			return
		}
		defer a.Release(n)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			httpjson.Error(w, http.StatusBadRequest, fmt.Errorf("sense: reading report body: %w", err))
			return
		}
		if parsed, err := a.ingestAdmitted(body); err != nil {
			status := http.StatusUnprocessableEntity
			if !parsed {
				status = http.StatusBadRequest
			}
			httpjson.Error(w, status, err)
			return
		}
		httpjson.Write(w, http.StatusAccepted, a.Stats())
	})
	mux.HandleFunc("GET /map", func(w http.ResponseWriter, r *http.Request) {
		b, err := a.MapBytes()
		if err != nil {
			httpjson.Error(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	})
	mux.HandleFunc("GET /map/summary", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, a.Summarize())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, a.Stats())
	})
	return mux
}

// IsBackpressure reports whether an ingest error (local or decoded from
// an HTTP 429) is the backpressure signal.
func IsBackpressure(err error) bool { return errors.Is(err, ErrBackpressure) }
