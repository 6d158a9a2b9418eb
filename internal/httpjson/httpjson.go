// Package httpjson holds the server construction and JSON response
// helpers shared by the HTTP APIs in this repo — the fleet campaign
// server and the sense ingest server — so every endpoint applies the same
// slow-client timeouts and renders bodies and errors identically instead
// of each server growing its own copy.
package httpjson

import (
	"encoding/json"
	"net/http"
	"time"
)

// Slow-client timeouts applied by NewServer.
const (
	// readHeaderTimeout bounds how long a client may take to send the
	// request line and headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request, body included — and so
	// how long a slow POST can hold admitted sense ingest budget.
	readTimeout = 30 * time.Second
	// idleTimeout closes keep-alive connections left idle this long.
	idleTimeout = 2 * time.Minute
)

// NewServer returns a server for h on addr that disconnects slow and idle
// clients. WriteTimeout stays unset: DELETE /campaigns/{id} on the fleet
// server blocks until the canceled campaign settles, which no fixed
// response deadline can bound.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Write renders v as indented JSON with the given status code.
func Write(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error renders err as the canonical {"error": "..."} body.
func Error(w http.ResponseWriter, code int, err error) {
	Write(w, code, map[string]string{"error": err.Error()})
}
