package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func postCampaign(t *testing.T, ts *httptest.Server, spec Spec) Campaign {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var c Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// runCampaignOverHTTP drives a campaign through the JSON API end to end and
// returns the raw per-node results payload.
func runCampaignOverHTTP(t *testing.T, srv *Server, spec Spec) []byte {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := postCampaign(t, ts, spec)
	if c.ID == "" || (c.Status != StatusPending && c.Status != StatusRunning) {
		t.Fatalf("created campaign %+v", c)
	}
	if _, err := srv.Wait(context.Background(), c.ID); err != nil {
		t.Fatal(err)
	}

	var got Campaign
	if code := getJSON(t, ts.URL+"/campaigns/"+c.ID, &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", c.ID, got.Status, got.Error)
	}
	if got.Result == nil || got.Result.Nodes != nil {
		t.Fatal("status summary must include the result without per-node payload")
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nodes: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	spec := Spec{Seed: 7, Nodes: 100, Mode: ModeBroadcast, ImageKB: 8}
	raw := runCampaignOverHTTP(t, NewServer(), spec)
	var nodes []NodeResult
	if err := json.Unmarshal(raw, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 100 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	for _, n := range nodes {
		if n.Err != "" {
			t.Errorf("node %d: %s", n.ID, n.Err)
		}
	}
}

func TestHTTPCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	// The acceptance bar: a seeded 100-node broadcast campaign through the
	// HTTP API yields byte-identical per-node results for 1 and 8 workers.
	spec := Spec{Seed: 11, Nodes: 100, Mode: ModeBroadcast, ImageKB: 8}
	spec.Workers = 1
	one := runCampaignOverHTTP(t, NewServer(), spec)
	spec.Workers = 8
	eight := runCampaignOverHTTP(t, NewServer(), spec)
	if !bytes.Equal(one, eight) {
		t.Error("per-node results differ between 1 and 8 workers")
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Invalid spec rejected.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader([]byte(`{"nodes":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-node spec: status %d", resp.StatusCode)
	}

	// Unknown campaign.
	if code := getJSON(t, ts.URL+"/campaigns/c99", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/campaigns/c99/nodes", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign nodes: status %d", code)
	}
}

// TestHTTPCreateRejectsOversizedBody pins the fail-closed create path: a
// body past the cap is refused with 413 before it is buffered, and no
// campaign comes of it.
func TestHTTPCreateRejectsOversizedBody(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(Spec{Seed: 1, Nodes: 20, ImageKB: 8})
	body := append(bytes.Repeat([]byte(" "), maxSpecBytes), spec...)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if n := len(srv.List()); n != 0 {
		t.Errorf("oversized body created %d campaigns", n)
	}
}

// TestHTTPCreateRejectsOverlongFaultBurst pins the bound on the fault
// grammar at the API edge: fault-plan queries scan one burst window per
// frame, so a burst past fault.MaxBurstFrames is refused with 400 rather
// than left to hold the run slot.
func TestHTTPCreateRejectsOverlongFaultBurst(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, faults := range []string{"desync=0.1:100000", "apoutage=0.01:1025"} {
		body, _ := json.Marshal(Spec{Seed: 1, Nodes: 2, ImageKB: 8, Faults: faults})
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("faults %q: status %d, want 400", faults, resp.StatusCode)
		}
	}
	if n := len(srv.List()); n != 0 {
		t.Errorf("over-long bursts created %d campaigns", n)
	}
}

func TestHTTPList(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		c := postCampaign(t, ts, Spec{Seed: int64(i), Nodes: 4, ShardSize: 4, ImageKB: 8, Workers: 1})
		ids = append(ids, c.ID)
	}
	for _, id := range ids {
		if _, err := srv.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	var list []Campaign
	if code := getJSON(t, ts.URL+"/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d campaigns", len(list))
	}
	for i, c := range list {
		if want := fmt.Sprintf("c%d", i+1); c.ID != want {
			t.Errorf("list[%d] = %s, want %s", i, c.ID, want)
		}
		if c.Status != StatusDone {
			t.Errorf("campaign %s status %s", c.ID, c.Status)
		}
		if c.Result != nil && c.Result.Nodes != nil {
			t.Error("listing must not carry per-node payloads")
		}
	}
}

func TestHTTPCancelQueuedCampaign(t *testing.T) {
	// The run slot serializes campaigns, so a second POST while the first
	// runs sits in StatusPending — canceling it must settle as canceled
	// without ever running, and the first campaign must finish untouched.
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := postCampaign(t, ts, Spec{Seed: 1, Nodes: 200, Mode: ModeBroadcast, ImageKB: 8})
	second := postCampaign(t, ts, Spec{Seed: 2, Nodes: 200, Mode: ModeBroadcast, ImageKB: 8})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Campaign
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if got.Status != StatusCanceled && got.Status != StatusDone {
		t.Fatalf("canceled campaign status %s (%s)", got.Status, got.Error)
	}

	done, err := srv.Wait(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Errorf("first campaign status %s (%s)", done.Status, done.Error)
	}
}

func TestHTTPCancelUnknownCampaign(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/c42", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown: status %d", resp.StatusCode)
	}
}

func TestCancelAfterDoneLeavesResult(t *testing.T) {
	srv := NewServer()
	c, _, err := srv.CreateID("", Spec{Seed: 3, Nodes: 4, ShardSize: 4, ImageKB: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(context.Background(), c.ID); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Cancel(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Result == nil {
		t.Errorf("terminal campaign mutated by cancel: %s", got.Status)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	srv := NewServer()
	// Hold the run slot so the waited-on campaign never finishes.
	blocker, _, err := srv.CreateID("", Spec{Seed: 4, Nodes: 400, Mode: ModeBroadcast, ImageKB: 8})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := srv.CreateID("", Spec{Seed: 5, Nodes: 400, Mode: ModeBroadcast, ImageKB: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Wait(ctx, queued.ID); err == nil {
		t.Error("Wait returned without the campaign finishing")
	}
	// Drain so the test does not leak the running goroutine.
	if _, err := srv.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServerConcurrentCancelStress hammers the campaign map from every API
// surface at once — creates, cancels, polls, listings and waits racing each
// other — so `go test -race` covers the lifecycle transitions (especially
// cancel-before-start versus cancel-mid-run) that single-campaign tests
// serialize away.
func TestServerConcurrentCancelStress(t *testing.T) {
	srv := NewServer()
	const campaigns = 12

	var wg sync.WaitGroup
	ids := make(chan string, campaigns)
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, err := srv.CreateID("", Spec{Seed: int64(i), Nodes: 8, ShardSize: 4, ImageKB: 4, Workers: 1})
			if err != nil {
				t.Error(err)
				return
			}
			ids <- c.ID
			if i%2 == 0 {
				// Half the campaigns are canceled while pending or running.
				if _, err := srv.Cancel(c.ID); err != nil {
					t.Error(err)
				}
			}
			if _, err := srv.Wait(context.Background(), c.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}

	// Readers churn the map while the lifecycle goroutines run.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, c := range srv.List() {
					if _, ok := srv.Get(c.ID); !ok {
						t.Errorf("listed campaign %q vanished", c.ID)
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	close(ids)

	for id := range ids {
		c, ok := srv.Get(id)
		if !ok {
			t.Fatalf("campaign %q lost", id)
		}
		switch c.Status {
		case StatusDone, StatusCanceled:
		default:
			t.Errorf("campaign %q not terminal after Wait: %s (error %q)", id, c.Status, c.Error)
		}
	}
	if got := len(srv.List()); got != campaigns {
		t.Errorf("List returned %d campaigns, want %d", got, campaigns)
	}
}
