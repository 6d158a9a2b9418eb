package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/uwsdr/tinysdr/internal/httpjson"
	"github.com/uwsdr/tinysdr/internal/journal"
)

// Status is a campaign's lifecycle state.
type Status string

// Campaign states.
const (
	StatusPending  Status = "pending"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Campaign is one scheduled fleet rollout.
type Campaign struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	Status Status `json:"status"`
	// ShardsDone is the count of journaled shard results of a running
	// campaign — the resume point a restart would pick up from. Zero once
	// the campaign is terminal (the Result carries the totals then).
	ShardsDone int `json:"shards_done,omitempty"`
	// Error holds the campaign-level failure for StatusFailed (per-node
	// failures live in Result.Nodes and leave the campaign StatusDone).
	Error string `json:"error,omitempty"`
	// Result is set once the campaign reaches StatusDone.
	Result *Result `json:"result,omitempty"`
}

// MaxCampaigns bounds the campaigns a server retains; creation is rejected
// beyond it. Every completed campaign keeps its per-node results in memory,
// so the cap is the server's memory backstop.
const MaxCampaigns = 1000

// JournalName is the campaign journal's file name inside a state dir.
const JournalName = "campaigns.journal"

// maxSpecBytes caps a POST /campaigns body. A full Spec plus id is about
// 200 bytes of JSON, so the cap leaves ample headroom while an oversized
// or endless body is refused instead of buffered.
const maxSpecBytes = 64 << 10

// Sentinel errors of the campaign API.
var (
	// ErrDraining rejects creation on a server that is shutting down.
	ErrDraining = errors.New("fleet: server is draining, not admitting campaigns")
	// ErrSpecConflict rejects an idempotent create whose client-supplied
	// ID already names a campaign with a different spec.
	ErrSpecConflict = errors.New("fleet: campaign id already exists with a different spec")

	// errKilled aborts in-flight work after a (simulated) control-plane
	// kill; nothing observes it because the process is considered dead.
	errKilled = errors.New("fleet: server killed")
)

// Server schedules campaigns and serves their state over a JSON API. The
// zero value is not usable; call NewServer (in-memory) or OpenServer
// (journal-backed, crash-recoverable).
type Server struct {
	mu     sync.Mutex
	states map[string]*campaignState
	order  []string // creation order, for listings and compaction
	nextID int
	// j is the write-ahead campaign journal; nil for an in-memory server.
	// Every lifecycle transition appends a record before the in-memory
	// state moves (see persist.go).
	j *journal.Journal
	// draining stops admissions; drained marks a drain that finished (the
	// journal closed); killed simulates SIGKILL (journal closed abruptly,
	// no further transitions journaled or applied).
	draining bool
	drained  bool
	killed   bool
	// dirty records that a record was appended, or an append attempted,
	// since OpenServer left the journal equal to its compaction; Drain
	// compacts only then.
	dirty bool
	// crashAfter counts journal appends until a simulated kill fires; 0
	// disables. crashed closes when a kill (real or simulated) happens.
	crashAfter int
	crashed    chan struct{}
	// wg tracks campaign runner goroutines so Drain can wait them out.
	wg sync.WaitGroup
	// runSlot serializes campaign execution: each campaign already fans
	// out across the whole worker pool, so queued campaigns wait in
	// StatusPending instead of oversubscribing the host.
	runSlot chan struct{}
}

// NewServer returns an empty in-memory campaign scheduler: campaigns die
// with the process. Use OpenServer for the crash-recoverable variant.
func NewServer() *Server {
	return &Server{
		states:  make(map[string]*campaignState),
		crashed: make(chan struct{}),
		runSlot: make(chan struct{}, 1),
	}
}

// OpenServer returns a journal-backed campaign scheduler rooted at
// stateDir (created if missing). An existing journal is replayed: terminal
// campaigns come back with their results, and interrupted ones re-enqueue
// and resume from their last journaled shard — a campaign is only ever
// re-executed at shard granularity, and the resumed Result is
// byte-identical to an uninterrupted run. Before the server starts
// admitting work, the replayed journal is compacted in place, unless its
// records already are the compaction of the recovered state.
func OpenServer(stateDir string) (*Server, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	j, recs, err := journal.Open(filepath.Join(stateDir, JournalName))
	if err != nil {
		return nil, err
	}
	recovered, err := replayRecords(recs)
	if err != nil {
		j.Close()
		return nil, err
	}
	s := NewServer()
	s.j = j
	s.nextID = recovered.nextID
	s.order = recovered.order
	for _, id := range s.order {
		cs := recovered.states[id]
		s.states[id] = cs
		cs.done = make(chan struct{})
		if cs.c.Status == StatusPending {
			cs.userCtx, cs.userCancel = context.WithCancel(context.Background())
			cs.runCtx, cs.runCancel = context.WithCancel(cs.userCtx)
		} else {
			// Terminal: nothing to run, nothing to cancel.
			cs.userCancel, cs.runCancel = func() {}, func() {}
			close(cs.done)
		}
	}
	snap, err := s.snapshotRecordsLocked()
	if err != nil {
		j.Close()
		return nil, err
	}
	if !sameRecords(snap, recs) {
		if err := j.Compact(snap); err != nil {
			j.Close()
			return nil, err
		}
	}
	// Re-enqueue interrupted campaigns in creation order, behind the same
	// run slot a fresh create uses.
	for _, id := range s.order {
		cs := s.states[id]
		if cs.c.Status == StatusPending {
			s.wg.Add(1)
			go s.run(cs)
		}
	}
	return s, nil
}

// snapshot copies a campaign's current state (Result is immutable once
// published, so a shallow copy is safe to hand out).
func (cs *campaignState) snapshot() *Campaign {
	cp := *cs.c
	cp.ShardsDone = len(cs.shards)
	return &cp
}

// summary is the snapshot with per-node results stripped — listings and
// status polls stay small even for thousand-node campaigns.
func summary(c *Campaign) *Campaign {
	cp := *c
	if cp.Result != nil {
		r := *cp.Result
		r.Nodes = nil
		cp.Result = &r
	}
	return &cp
}

// appendLocked journals one record, honoring the kill switches: a killed
// server appends nothing and reports errKilled so callers stop. Fires the
// simulated-crash countdown armed by CrashAfterAppends.
func (s *Server) appendLocked(typ uint8, v any) error {
	if s.j == nil {
		return nil
	}
	if s.killed {
		return errKilled
	}
	// Before the write: a failed append may leave a partial frame, and
	// callers may have moved the in-memory state already.
	s.dirty = true
	rec, err := marshalRecord(typ, v)
	if err != nil {
		return err
	}
	if err := s.j.Append(rec); err != nil {
		return err
	}
	if s.crashAfter > 0 {
		s.crashAfter--
		if s.crashAfter == 0 {
			s.killLocked()
		}
	}
	return nil
}

// validateCampaignID bounds client-supplied campaign IDs: they travel in
// URL paths and journal records, so keep them short and unambiguous.
func validateCampaignID(id string) error {
	if len(id) == 0 || len(id) > 64 {
		return fmt.Errorf("fleet: campaign id of %d bytes outside [1, 64]", len(id))
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("fleet: campaign id %q: only letters, digits, '-', '_', '.'", id)
		}
	}
	return nil
}

// Create validates the spec, registers a campaign under a server-assigned
// ID, and starts it on a background goroutine. The returned snapshot is
// StatusPending or later.
func (s *Server) Create(spec Spec) (*Campaign, error) {
	c, _, err := s.CreateID("", spec)
	return c, err
}

// CreateID is Create with an optional client-supplied campaign ID — the
// idempotency key of the retrying fleet.Client: re-sending a create with
// the same ID and spec returns the existing campaign (created=false)
// instead of scheduling a duplicate, and the same ID with a different spec
// is ErrSpecConflict. An empty id asks the server to allocate one.
func (s *Server) CreateID(id string, spec Spec) (c *Campaign, created bool, err error) {
	norm, err := spec.normalize()
	if err != nil {
		return nil, false, err
	}
	if id != "" {
		if err := validateCampaignID(id); err != nil {
			return nil, false, err
		}
	}
	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	if id != "" {
		if cs, ok := s.states[id]; ok {
			snap := cs.snapshot()
			s.mu.Unlock()
			if snap.Spec != norm {
				return nil, false, fmt.Errorf("%w: %q", ErrSpecConflict, id)
			}
			return snap, false, nil
		}
	}
	if len(s.states) >= MaxCampaigns {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("fleet: server at its %d-campaign capacity", MaxCampaigns)
	}
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("c%d", s.nextID)
	} else if hw := idHighWater(id); hw > s.nextID {
		// A client-supplied ID in the server's own namespace raises the
		// counter so later allocations cannot collide with it.
		s.nextID = hw
	}
	cs := &campaignState{
		c:      &Campaign{ID: id, Spec: norm, Status: StatusPending},
		done:   make(chan struct{}),
		shards: make(map[int]ShardResult),
	}
	cs.userCtx, cs.userCancel = context.WithCancel(context.Background())
	cs.runCtx, cs.runCancel = context.WithCancel(cs.userCtx)
	if err := s.appendLocked(recCreated, createdRecord{ID: id, Spec: norm}); err != nil {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("fleet: journaling campaign %q: %w", id, err)
	}
	s.states[id] = cs
	s.order = append(s.order, id)
	snap := cs.snapshot()
	s.wg.Add(1)
	s.mu.Unlock()

	go s.run(cs)
	return snap, true, nil
}

// run executes one campaign behind the run slot, journaling every
// transition. It is the only writer of the campaign's status after
// creation.
func (s *Server) run(cs *campaignState) {
	defer s.wg.Done()
	defer close(cs.done)

	// Wait for the run slot, bailing if the campaign is canceled, drained,
	// or killed while still queued.
	select {
	case s.runSlot <- struct{}{}:
		defer func() { <-s.runSlot }()
	case <-cs.runCtx.Done():
	}

	s.mu.Lock()
	if err := cs.runCtx.Err(); err != nil {
		if cs.userCtx.Err() != nil {
			// Canceled while still pending in the queue: never runs.
			cs.c.Status = StatusCanceled
			cs.c.Error = "fleet: campaign canceled before it started"
			cs.shards = nil
			// A failed terminal append surfaces on the next replay as a
			// still-pending campaign — safe, it just runs again.
			_ = s.appendLocked(recCanceled, errorRecord{ID: cs.c.ID, Error: cs.c.Error})
		}
		// Drained or killed while pending: stays pending in the journal
		// and re-enqueues on the next OpenServer.
		s.mu.Unlock()
		return
	}
	cs.c.Status = StatusRunning
	var jerr error
	if !cs.started {
		if jerr = s.appendLocked(recStarted, startedRecord{ID: cs.c.ID}); jerr == nil {
			cs.started = true
		}
	}
	resume := make(map[int]ShardResult, len(cs.shards))
	for sh := 0; sh < numShards(cs.c.Spec); sh++ {
		if sr, ok := cs.shards[sh]; ok {
			resume[sh] = sr
		}
	}
	id, spec := cs.c.ID, cs.c.Spec
	s.mu.Unlock()

	var res *Result
	if jerr == nil {
		res, jerr = RunResumable(cs.runCtx, spec, resume, func(sr ShardResult) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.appendLocked(recShardDone, shardDoneRecord{ID: id, Result: sr}); err != nil {
				return err
			}
			cs.shards[sr.Shard] = sr
			return nil
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.killed:
		// Simulated dead process: no further transitions. The journal
		// holds created/started/shard-done records; restart resumes.
	case jerr != nil && cs.userCtx.Err() != nil:
		cs.c.Status = StatusCanceled
		cs.c.Error = jerr.Error()
		cs.shards = nil
		_ = s.appendLocked(recCanceled, errorRecord{ID: id, Error: cs.c.Error})
	case jerr != nil && cs.runCtx.Err() != nil && s.draining:
		// Drained: cut at the shard boundary, stays StatusRunning in the
		// journal (started + shard-dones) so a restart resumes it.
	case jerr != nil:
		cs.c.Status = StatusFailed
		cs.c.Error = jerr.Error()
		cs.shards = nil
		_ = s.appendLocked(recFailed, errorRecord{ID: id, Error: cs.c.Error})
	default:
		if err := s.appendLocked(recDone, doneRecord{ID: id, Result: res}); err != nil {
			if s.killed {
				// The kill landed on this very append; treat as crashed.
				return
			}
			cs.c.Status = StatusFailed
			cs.c.Error = err.Error()
			cs.shards = nil
			return
		}
		cs.c.Status = StatusDone
		cs.c.Result = res
		cs.shards = nil
	}
}

// Cancel requests a campaign's cancellation: a pending campaign never
// starts, a running one aborts between shards and repair rounds, and a
// terminal one is left untouched. It returns the campaign's snapshot after
// the cancellation settles.
func (s *Server) Cancel(id string) (*Campaign, error) {
	s.mu.Lock()
	cs, ok := s.states[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	cs.userCancel()
	return s.Wait(context.Background(), id)
}

// Get returns a campaign's current snapshot.
func (s *Server) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.states[id]
	if !ok {
		return nil, false
	}
	return cs.snapshot(), true
}

// Wait blocks until the campaign reaches a terminal state and returns it,
// or until ctx is done (returning the context's error), so API callers can
// bound how long they block on a queued or slow campaign. On a draining or
// killed server Wait returns once the campaign settles, which may leave it
// non-terminal (resumable after restart).
func (s *Server) Wait(ctx context.Context, id string) (*Campaign, error) {
	s.mu.Lock()
	cs, ok := s.states[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	select {
	case <-cs.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("fleet: waiting for campaign %q: %w", id, ctx.Err())
	}
	c, _ := s.Get(id)
	return c, nil
}

// List returns summaries of every campaign, sorted by ID (server-assigned
// IDs sort in creation order).
func (s *Server) List() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, summary(s.states[id].snapshot()))
	}
	sort.Slice(out, func(i, j int) bool {
		return len(out[i].ID) < len(out[j].ID) ||
			(len(out[i].ID) == len(out[j].ID) && out[i].ID < out[j].ID)
	})
	return out
}

// Drain gracefully shuts the control plane down: stop admitting campaigns
// (Create returns ErrDraining), interrupt running campaigns at their next
// shard boundary — completed shards stay journaled, the campaign stays
// resumable — wait for every runner to settle, then close the journal,
// compacting it first if a record was appended (or an append attempted)
// since OpenServer. ctx bounds the wait; an expired ctx abandons the
// drain, leaving runners settling and the journal open (consistent, just
// uncompacted — exactly what a kill would leave), and a repeated Drain
// waits and finishes it. Drain is a no-op after a completed drain and on
// a killed server.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.drained || s.killed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for _, id := range s.order {
		s.states[id].runCancel()
	}
	s.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
	case <-ctx.Done():
		return fmt.Errorf("fleet: drain: %w", ctx.Err())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained || s.killed {
		return nil
	}
	if s.dirty {
		snap, err := s.snapshotRecordsLocked()
		if err != nil {
			return err
		}
		if err := s.j.Compact(snap); err != nil {
			return err
		}
	}
	s.drained = true
	if s.j == nil {
		return nil
	}
	return s.j.Close()
}

// killLocked is the simulated SIGKILL: the journal closes abruptly exactly
// where it is, every runner's context is cut, and no further state
// transition is journaled or applied — the process is considered dead.
func (s *Server) killLocked() {
	if s.killed {
		return
	}
	s.killed = true
	for _, id := range s.order {
		s.states[id].runCancel()
	}
	if s.j != nil {
		s.j.Close()
	}
	close(s.crashed)
}

// CrashAfterAppends arms the deterministic crash point of the fleetcrash
// chaos harness: the server kills itself immediately after the n-th
// journal record append from now. Arm it before creating campaigns; n <= 0
// disarms.
func (s *Server) CrashAfterAppends(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.crashAfter = 0
		return
	}
	s.crashAfter = n
}

// Crashed closes when the server kills itself (an armed CrashAfterAppends
// firing) — the chaos harness's signal to "restart".
func (s *Server) Crashed() <-chan struct{} { return s.crashed }

// Handler returns the JSON API:
//
//	POST   /campaigns        create a campaign from a Spec body; an
//	                         optional "id" field is the idempotency key
//	                         (201 created, 200 existing, 409 spec conflict,
//	                         413 body over 64 KiB, 503 draining)
//	GET    /campaigns        list campaign summaries
//	GET    /campaigns/{id}   one campaign's status and summary
//	GET    /campaigns/{id}/nodes  the per-node results (once done)
//	DELETE /campaigns/{id}   cancel a pending or running campaign
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID string `json:"id"`
			Spec
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpjson.Error(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("fleet: spec body over %d bytes", tooLarge.Limit))
				return
			}
			httpjson.Error(w, http.StatusBadRequest, fmt.Errorf("fleet: bad spec: %w", err))
			return
		}
		c, created, err := s.CreateID(req.ID, req.Spec)
		switch {
		case errors.Is(err, ErrDraining):
			httpjson.Error(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrSpecConflict):
			httpjson.Error(w, http.StatusConflict, err)
			return
		case err != nil:
			httpjson.Error(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusCreated
		if !created {
			code = http.StatusOK
		}
		httpjson.Write(w, code, c)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.Get(r.PathValue("id"))
		if !ok {
			httpjson.Error(w, http.StatusNotFound, fmt.Errorf("fleet: unknown campaign %q", r.PathValue("id")))
			return
		}
		httpjson.Write(w, http.StatusOK, summary(c))
	})
	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		c, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpjson.Error(w, http.StatusNotFound, err)
			return
		}
		httpjson.Write(w, http.StatusOK, summary(c))
	})
	mux.HandleFunc("GET /campaigns/{id}/nodes", func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.Get(r.PathValue("id"))
		if !ok {
			httpjson.Error(w, http.StatusNotFound, fmt.Errorf("fleet: unknown campaign %q", r.PathValue("id")))
			return
		}
		if c.Result == nil {
			httpjson.Error(w, http.StatusConflict,
				fmt.Errorf("fleet: campaign %q is %s; per-node results need status %s", c.ID, c.Status, StatusDone))
			return
		}
		httpjson.Write(w, http.StatusOK, c.Result.Nodes)
	})
	return mux
}
