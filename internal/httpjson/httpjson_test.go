package httpjson

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestWrite(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, 201, map[string]int{"n": 3})
	if rec.Code != 201 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["n"] != 3 {
		t.Fatalf("body %v", got)
	}
}

func TestError(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, 418, errors.New("boom"))
	if rec.Code != 418 {
		t.Fatalf("status %d", rec.Code)
	}
	var got map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["error"] != "boom" {
		t.Fatalf("body %v", got)
	}
}

// TestNewServer pins the slow-client contract: the server sets header,
// read and idle timeouts (and no write timeout), serves its handler, and
// drops a client that stalls mid request line once the header deadline
// passes.
func TestNewServer(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Write(w, http.StatusOK, map[string]string{"path": r.URL.Path})
	})
	srv := NewServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" {
		t.Fatalf("addr %q", srv.Addr)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v write=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}

	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/probe")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got["path"] != "/probe" {
		t.Fatalf("status %d, body %v, err %v", resp.StatusCode, got, err)
	}

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /probe HT"); err != nil {
		t.Fatal(err)
	}
	// The server must hang up on its own; the client deadline only keeps
	// a regression from stalling the test.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept a stalled client past its header timeout")
		}
	}
}
