package fleet

// The campaign journal: how Server state becomes durable. Every lifecycle
// transition appends one record to an internal/journal write-ahead log
// before the in-memory state moves, and startup replays the log to
// recover. Records are JSON payloads inside the journal's CRC-sealed
// binary frames — encoding/json renders struct fields in declaration
// order and sorts map keys, so a given state always journals to the same
// bytes and compaction snapshots are canonical. Records carry no
// wall-clock timestamps: replaying a journal is a pure function of its
// bytes.
//
// Record sequence per campaign (type tags below):
//
//	created   {id, spec}        spec already normalized
//	started   {id}              execution began; at most once
//	shard-done{id, result}      one per completed shard, any order
//	done      {id, result}      terminal: the merged campaign Result
//	failed    {id, error}       terminal
//	canceled  {id, error}       terminal
//
// Replay is strict: records for unknown campaigns, duplicate or
// out-of-range shards, transitions after a terminal record, or malformed
// payloads reject the journal — inside a CRC-valid record those are
// writer bugs, not torn writes, and recovery must not guess. Compaction
// rewrites the log as its minimal equivalent: created + terminal for
// finished campaigns, created [+ started + shard-dones] for live ones, in
// creation order. It runs on open only when the replayed records differ
// from that image, and on drain only when a record was appended (or an
// append attempted) since; a clean-drained journal already is its own
// compaction, so a restart that changes nothing rewrites nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/uwsdr/tinysdr/internal/journal"
)

// Journal record types.
const (
	recCreated   uint8 = 1
	recStarted   uint8 = 2
	recShardDone uint8 = 3
	recDone      uint8 = 4
	recFailed    uint8 = 5
	recCanceled  uint8 = 6
)

type createdRecord struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

type startedRecord struct {
	ID string `json:"id"`
}

type shardDoneRecord struct {
	ID     string      `json:"id"`
	Result ShardResult `json:"result"`
}

type doneRecord struct {
	ID     string  `json:"id"`
	Result *Result `json:"result"`
}

type errorRecord struct {
	ID    string `json:"id"`
	Error string `json:"error,omitempty"`
}

// campaignState is one campaign's full server-side state: the published
// Campaign plus the execution machinery that never leaves the server.
type campaignState struct {
	c    *Campaign
	done chan struct{}
	// userCtx is canceled by Cancel; runCtx additionally by Drain, so
	// completion can tell a user cancellation (terminal, journaled) from a
	// control-plane shutdown (campaign stays resumable).
	userCtx    context.Context
	userCancel context.CancelFunc
	runCtx     context.Context
	runCancel  context.CancelFunc
	// started mirrors the journal: true once a started record exists, so
	// a resumed campaign does not journal it twice.
	started bool
	// shards holds the journaled per-shard results of a non-terminal
	// campaign — the resume set. Cleared on terminal transition.
	shards map[int]ShardResult
}

// recoveredState is a journal replayed into campaign states.
type recoveredState struct {
	order  []string
	states map[string]*campaignState
	nextID int
}

// idHighWater parses server-allocated "c<N>" identifiers so a recovered
// server's counter resumes past every journaled ID instead of restarting
// at zero and colliding.
func idHighWater(id string) int {
	if !strings.HasPrefix(id, "c") {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 || id[1] == '0' && n != 0 {
		return 0
	}
	return n
}

// replayRecords folds a journal into recovered campaign state. Campaigns
// without a terminal record come back StatusPending with their journaled
// shard results attached, ready to resume.
func replayRecords(recs []journal.Record) (*recoveredState, error) {
	st := &recoveredState{states: make(map[string]*campaignState)}
	get := func(id string) (*campaignState, error) {
		cs, ok := st.states[id]
		if !ok {
			return nil, fmt.Errorf("fleet: journal references unknown campaign %q", id)
		}
		if cs.c.Status != StatusPending {
			return nil, fmt.Errorf("fleet: journal transitions campaign %q after its terminal %s", id, cs.c.Status)
		}
		return cs, nil
	}
	for i, rec := range recs {
		switch rec.Type {
		case recCreated:
			var r createdRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d: %w", i, err)
			}
			if r.ID == "" {
				return nil, fmt.Errorf("fleet: journal record %d: empty campaign id", i)
			}
			if _, ok := st.states[r.ID]; ok {
				return nil, fmt.Errorf("fleet: journal re-creates campaign %q", r.ID)
			}
			norm, err := r.Spec.normalize()
			if err != nil {
				return nil, fmt.Errorf("fleet: journaled campaign %q: %w", r.ID, err)
			}
			st.states[r.ID] = &campaignState{
				c:      &Campaign{ID: r.ID, Spec: norm, Status: StatusPending},
				shards: make(map[int]ShardResult),
			}
			st.order = append(st.order, r.ID)
			if hw := idHighWater(r.ID); hw > st.nextID {
				st.nextID = hw
			}
		case recStarted:
			var r startedRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d: %w", i, err)
			}
			cs, err := get(r.ID)
			if err != nil {
				return nil, err
			}
			if cs.started {
				return nil, fmt.Errorf("fleet: journal starts campaign %q twice", r.ID)
			}
			cs.started = true
		case recShardDone:
			var r shardDoneRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d: %w", i, err)
			}
			cs, err := get(r.ID)
			if err != nil {
				return nil, err
			}
			if !cs.started {
				return nil, fmt.Errorf("fleet: journal completes a shard of unstarted campaign %q", r.ID)
			}
			n := numShards(cs.c.Spec)
			if s := r.Result.Shard; s < 0 || s >= n {
				return nil, fmt.Errorf("fleet: journaled shard %d outside campaign %q's %d-shard partition", s, r.ID, n)
			}
			if _, dup := cs.shards[r.Result.Shard]; dup {
				return nil, fmt.Errorf("fleet: journal completes shard %d of campaign %q twice", r.Result.Shard, r.ID)
			}
			cs.shards[r.Result.Shard] = r.Result
		case recDone:
			var r doneRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d: %w", i, err)
			}
			cs, err := get(r.ID)
			if err != nil {
				return nil, err
			}
			if r.Result == nil {
				return nil, fmt.Errorf("fleet: journaled done record for %q has no result", r.ID)
			}
			cs.c.Status = StatusDone
			cs.c.Result = r.Result
			cs.shards = nil
		case recFailed, recCanceled:
			var r errorRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d: %w", i, err)
			}
			cs, err := get(r.ID)
			if err != nil {
				return nil, err
			}
			if rec.Type == recFailed {
				cs.c.Status = StatusFailed
			} else {
				cs.c.Status = StatusCanceled
			}
			cs.c.Error = r.Error
			cs.shards = nil
		default:
			return nil, fmt.Errorf("fleet: journal record %d has unknown type %d", i, rec.Type)
		}
	}
	return st, nil
}

// marshalRecord renders one journal record; the payload shapes are fixed
// structs, so marshaling cannot fail for reachable values.
func marshalRecord(typ uint8, v any) (journal.Record, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return journal.Record{}, err
	}
	return journal.Record{Type: typ, Data: data}, nil
}

// snapshotRecordsLocked renders the server's current state as a minimal
// canonical journal — the compaction image. Campaigns appear in creation
// order; a live campaign's shard records appear in shard order, so the
// same state always compacts to the same bytes.
func (s *Server) snapshotRecordsLocked() ([]journal.Record, error) {
	var out []journal.Record
	emit := func(typ uint8, v any) error {
		rec, err := marshalRecord(typ, v)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	}
	for _, id := range s.order {
		cs := s.states[id]
		if err := emit(recCreated, createdRecord{ID: id, Spec: cs.c.Spec}); err != nil {
			return nil, err
		}
		switch cs.c.Status {
		case StatusDone:
			if err := emit(recDone, doneRecord{ID: id, Result: cs.c.Result}); err != nil {
				return nil, err
			}
		case StatusFailed:
			if err := emit(recFailed, errorRecord{ID: id, Error: cs.c.Error}); err != nil {
				return nil, err
			}
		case StatusCanceled:
			if err := emit(recCanceled, errorRecord{ID: id, Error: cs.c.Error}); err != nil {
				return nil, err
			}
		default:
			if cs.started {
				if err := emit(recStarted, startedRecord{ID: id}); err != nil {
					return nil, err
				}
				for sh := 0; sh < numShards(cs.c.Spec); sh++ {
					sr, ok := cs.shards[sh]
					if !ok {
						continue
					}
					if err := emit(recShardDone, shardDoneRecord{ID: id, Result: sr}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

// sameRecords reports whether two record lists match record for record,
// type and payload bytes alike. Journal framing is canonical, so a
// journal whose records equal the compaction image is that image, byte
// for byte, and rewriting it would change nothing.
func sameRecords(a, b []journal.Record) bool {
	return slices.EqualFunc(a, b, func(x, y journal.Record) bool {
		return x.Type == y.Type && bytes.Equal(x.Data, y.Data)
	})
}
