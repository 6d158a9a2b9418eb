package fleet

// Client tests: the retrying HTTP client must carry a campaign across a
// control-plane kill/restart — create idempotently, poll through the
// outage, and hand back a Result byte-identical to a local run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serveOn serves srv's API on ln until the returned stop func runs.
func serveOn(ln net.Listener, srv *Server) (stop func()) {
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return func() {
		hs.Close()
		<-done
	}
}

// TestClientSurvivesServerRestart is the client half of the crash story:
// kill the control plane at a deterministic mid-campaign journal append,
// restart it on the same address from the same state dir, and require the
// client's create/wait/fetch sequence — started before the kill — to
// complete with a Result byte-identical to a local run.
func TestClientSurvivesServerRestart(t *testing.T) {
	golden, err := Run(crashSpec)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	dir := t.TempDir()
	s1, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Kill after the first shard-done record: mid-campaign, resumable.
	s1.CrashAfterAppends(3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	stop1 := serveOn(ln, s1)

	cl := NewClient("http://"+addr, 1)
	// Shrink the retry/poll pacing so the outage window costs test time in
	// milliseconds, not the production defaults' seconds.
	cl.backoffBase, cl.backoffCap, cl.poll = time.Millisecond, 20*time.Millisecond, 5*time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Create(ctx, "restart-soak", crashSpec); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Wait for the armed crash, then restart on the same address while the
	// client is mid-WaitDone.
	waited := make(chan error, 1)
	go func() {
		_, err := cl.WaitDone(ctx, "restart-soak")
		waited <- err
	}()
	select {
	case <-s1.Crashed():
	case <-ctx.Done():
		t.Fatalf("crash point never fired")
	}
	stop1()

	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s2.Drain(context.Background())
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer serveOn(ln2, s2)()

	if err := <-waited; err != nil {
		t.Fatalf("WaitDone across restart: %v", err)
	}
	res, err := cl.Result(ctx, "restart-soak")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	got, want := resultJSON(t, res), resultJSON(t, golden)
	if !bytes.Equal(got, want) {
		t.Errorf("client result across restart differs from local run\n got: %s\nwant: %s", got, want)
	}
}

// TestClientCreateIdempotent pins the idempotency key over HTTP: a
// re-sent create with the same id+spec lands on the existing campaign,
// and a conflicting spec is a hard 409, not a retry.
func TestClientCreateIdempotent(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, 1)
	cl.backoffBase, cl.backoffCap, cl.poll = time.Millisecond, 20*time.Millisecond, 5*time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c1, err := cl.Create(ctx, "idem", crashSpec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	c2, err := cl.Create(ctx, "idem", crashSpec)
	if err != nil {
		t.Fatalf("re-create: %v", err)
	}
	if c1.ID != "idem" || c2.ID != "idem" {
		t.Fatalf("campaign ids %q, %q, want idem", c1.ID, c2.ID)
	}
	other := crashSpec
	other.Seed++
	if _, err := cl.Create(ctx, "idem", other); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("conflicting create error %v, want a 409", err)
	}
	if _, err := cl.Create(ctx, "", crashSpec); err == nil {
		t.Fatalf("client accepted an empty idempotency key")
	}
}

// TestClientWaitCancelAndList smoke-tests the remaining verbs end to end,
// with DELETE /campaigns/{id} and GET /campaigns driven through the
// client's retrying transport.
func TestClientWaitCancelAndList(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, 1)
	cl.backoffBase, cl.backoffCap, cl.poll = time.Millisecond, 20*time.Millisecond, 5*time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Create(ctx, "a", crashSpec); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Queue a big second campaign and cancel it while pending.
	big := Spec{Seed: 3, Nodes: 2000, ShardSize: 20}
	if _, err := cl.Create(ctx, "b", big); err != nil {
		t.Fatalf("create b: %v", err)
	}
	var cb Campaign
	if _, err := cl.do(ctx, http.MethodDelete, "/campaigns/b", nil, &cb); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if cb.Status != StatusCanceled {
		t.Fatalf("canceled campaign status %s", cb.Status)
	}
	ca, err := cl.WaitDone(ctx, "a")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if ca.Status != StatusDone {
		t.Fatalf("campaign a ended %s (%s)", ca.Status, ca.Error)
	}
	var list []*Campaign
	if _, err := cl.do(ctx, http.MethodGet, "/campaigns", nil, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(list))
	}
	if _, err := cl.Result(ctx, "b"); err == nil {
		t.Fatalf("Result on a canceled campaign did not error")
	}
	if _, err := cl.Get(ctx, "ghost"); err == nil {
		t.Fatalf("Get on an unknown campaign did not error")
	}
}

// TestClientRetriesExhaust pins the failure mode when the server never
// comes back: a bounded number of attempts, then the last network error.
func TestClientRetriesExhaust(t *testing.T) {
	// A listener that is immediately closed: connection refused for all.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cl := NewClient("http://"+addr, 1)
	cl.attempts = 3
	cl.backoffBase, cl.backoffCap = time.Millisecond, 2*time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Get(ctx, "x"); err == nil {
		t.Fatalf("Get against a dead server did not error")
	}
	// A canceled context must cut the retry loop immediately.
	canceledCtx, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := cl.Get(canceledCtx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-context error %v, want context.Canceled", err)
	}
}

// TestClientRetriesOn5xx pins the status classification: 5xx retries
// until the server heals, 4xx is the caller's answer immediately.
func TestClientRetriesOn5xx(t *testing.T) {
	fails := 2
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= fails {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": "transient"})
			return
		}
		json.NewEncoder(w).Encode(&Campaign{ID: "x", Status: StatusDone})
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, 1)
	cl.backoffBase, cl.backoffCap = time.Millisecond, 2*time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := cl.Get(ctx, "x")
	if err != nil {
		t.Fatalf("Get through 5xx: %v", err)
	}
	if c.ID != "x" || calls != fails+1 {
		t.Fatalf("got id=%q after %d calls, want x after %d", c.ID, calls, fails+1)
	}
}
