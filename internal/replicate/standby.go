package replicate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/durable"
)

// Standby is a warm follower: it tails a leader's WAL over HTTP,
// mirrors the segment bytes into its own data directory, and applies
// each record — in strict sequence order — through the same entry
// points recovery uses, so its in-memory state tracks the leader's and
// its directory is a valid recovery directory at every instant.
//
// Sequence order is the correctness load-bearing part: the leader's
// group-commit writer drains per-stripe staging buffers, so physical
// record order on disk only approximates commit order (see
// durable.Replay). Records that arrive ahead of a sequence gap are
// parked in pending and applied when the gap fills; cross-user
// causality is encoded only in the sequence numbers.
type Standby struct {
	sys    *pphcr.System
	dir    string
	leader string // base URL, no trailing slash
	prefix string // mount prefix on the leader, e.g. /replication
	hc     *http.Client

	// Interval is the poll cadence (default 50ms).
	Interval time.Duration

	mu   sync.Mutex
	cond *sync.Cond // broadcast when applied advances
	// applied is the contiguous watermark: every record with seq <=
	// applied has been applied, none above.
	applied uint64
	// pending parks records that shipped ahead of a sequence gap.
	pending map[uint64]durable.Event
	// cursors tracks per-segment ship/parse progress.
	cursors map[int64]*segCursor
	// leaderSeq is the leader's last advertised ceiling; caughtUp is the
	// last instant applied covered it (lag = now - caughtUp).
	leaderSeq uint64
	caughtUp  time.Time
	lastPoll  time.Time
	err       error // sticky apply failure: the standby has diverged
	stopped   bool

	polls   int64
	shipped int64 // bytes mirrored
}

// segCursor is one segment's ship state. shipped is how many bytes the
// local copy holds; parsed is the valid-prefix offset already scanned —
// the gap between them is at most one torn record still arriving.
type segCursor struct {
	shipped int64
	parsed  int64
	sealed  bool // a later segment exists; this one will not grow
}

// NewStandby prepares dir as a mirror of the leader's data directory
// and returns a follower for sys (which must be freshly constructed
// with the leader's Config and hold no state — the leader's log
// contains its preload, so the follower starts empty and applies
// everything). prefix is the leader's replication mount (normally
// "/replication").
func NewStandby(sys *pphcr.System, dir, leaderURL, prefix string) (*Standby, error) {
	if err := durable.InitShipDir(dir); err != nil {
		return nil, err
	}
	s := &Standby{
		sys:      sys,
		dir:      dir,
		leader:   leaderURL,
		prefix:   prefix,
		hc:       &http.Client{},
		Interval: 50 * time.Millisecond,
		pending:  make(map[uint64]durable.Event),
		cursors:  make(map[int64]*segCursor),
		caughtUp: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Run polls until stop closes or an apply error wedges the standby.
// Fetch errors (leader down, mid-failover) are retried forever — a
// follower outliving its leader is the whole point. Run may be called
// again after it returned (a failed promotion resumes tailing).
func (s *Standby) Run(stop <-chan struct{}) {
	s.resume()
	t := time.NewTicker(s.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			s.mu.Lock()
			s.stopped = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		case <-t.C:
		}
		if err := s.Poll(context.Background()); err != nil {
			s.mu.Lock()
			wedged := s.err != nil
			s.mu.Unlock()
			if wedged {
				return // diverged: stop applying, surface via Err()
			}
			// transient fetch failure: keep polling
		}
	}
}

// resume clears the mark a stopped Run left, so WaitApplied blocks again
// instead of failing with "standby stopped".
func (s *Standby) resume() {
	s.mu.Lock()
	s.stopped = false
	s.mu.Unlock()
}

// Poll runs one tail iteration: fetch the leader manifest, ship new
// bytes, scan and apply. Transient network errors return non-nil
// without wedging; apply errors wedge (Err() becomes sticky).
func (s *Standby) Poll(ctx context.Context) error {
	st, err := s.fetchStatus(ctx)
	if err != nil {
		return err
	}
	if st.Format != durable.FormatVersion {
		return s.wedge(fmt.Errorf("replicate: leader WAL format %q, follower speaks %q", st.Format, durable.FormatVersion))
	}
	s.mu.Lock()
	s.polls++
	s.lastPoll = time.Now()
	s.leaderSeq = st.WalSeq
	s.mu.Unlock()

	for i, sf := range st.Segments {
		sealed := i < len(st.Segments)-1
		if err := s.shipSegment(ctx, sf, sealed); err != nil {
			return err
		}
	}

	s.mu.Lock()
	if s.applied >= s.leaderSeq {
		s.caughtUp = time.Now()
	}
	s.mu.Unlock()
	return nil
}

// wedge records a sticky divergence error.
func (s *Standby) wedge(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// Err reports the sticky apply/divergence error, nil while healthy.
func (s *Standby) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Standby) fetchStatus(ctx context.Context) (StatusView, error) {
	var st StatusView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.leader+s.prefix+statusPath, nil)
	if err != nil {
		return st, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("replicate: leader status: http %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// shipSegment mirrors one segment's new bytes and applies the records
// that became parseable.
func (s *Standby) shipSegment(ctx context.Context, sf durable.ShipFile, sealed bool) error {
	s.mu.Lock()
	cur, ok := s.cursors[sf.Seq]
	if !ok {
		cur = &segCursor{}
		s.cursors[sf.Seq] = cur
		if fi, err := os.Stat(s.segPath(sf.Seq)); err == nil {
			// A restart resumes shipping where the local copy ends; the
			// records are re-scanned from 0 and de-duplicated by seq.
			cur.shipped = fi.Size()
		}
	}
	cur.sealed = sealed
	from := cur.shipped
	s.mu.Unlock()

	if sf.Size > from {
		n, err := s.fetchBytes(ctx, sf.Seq, from)
		if err != nil {
			return err
		}
		s.mu.Lock()
		cur.shipped = from + n
		s.shipped += n
		s.mu.Unlock()
	}

	// Scan the unparsed suffix. A torn record at the scan end of the
	// active segment is the normal ship boundary (the rest of the record
	// has not arrived yet); on a sealed segment it would also be normal
	// only until the remaining bytes ship, so it is never fatal here —
	// promotion's Replay applies the final corruption rules.
	s.mu.Lock()
	parsed := cur.parsed
	s.mu.Unlock()
	if cur.shipped > parsed {
		newOff, _, err := durable.ScanSegment(s.segPath(sf.Seq), parsed, s.onRecord)
		s.mu.Lock()
		cur.parsed = newOff
		s.mu.Unlock()
		if err != nil {
			return s.wedge(fmt.Errorf("replicate: applying shipped record in segment %d: %w", sf.Seq, err))
		}
	}
	return nil
}

func (s *Standby) segPath(seq int64) string {
	return filepath.Join(s.dir, durable.SegmentFileName(seq))
}

// fetchBytes appends the leader's segment bytes from offset from to the
// local copy, returning how many arrived. The file write is append-only
// at the tracked offset, so a retried fetch after a partial write
// re-requests exactly the missing suffix.
func (s *Standby) fetchBytes(ctx context.Context, seq, from int64) (int64, error) {
	q := url.Values{
		"kind": {"segment"},
		"seq":  {fmt.Sprint(seq)},
		"off":  {fmt.Sprint(from)},
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.leader+s.prefix+filePath+"?"+q.Encode(), nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replicate: fetching segment %d: http %d: %s", seq, resp.StatusCode, body)
	}
	f, err := os.OpenFile(s.segPath(seq), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if err != nil {
		// Partial bytes are fine: they are a prefix of the leader's
		// file, and the next poll resumes at shipped+n.
		return n, err
	}
	return n, f.Sync()
}

// onRecord applies one scanned record, honoring the contiguity
// invariant: seq==applied+1 applies now (then drains any parked
// successors); anything later parks in pending; anything at or below
// applied is a re-scan duplicate and is dropped.
func (s *Standby) onRecord(e durable.Event) error {
	s.mu.Lock()
	switch {
	case e.Seq <= s.applied:
		s.mu.Unlock()
		return nil
	case e.Seq > s.applied+1:
		s.pending[e.Seq] = e
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.sys.ApplyReplicated(e); err != nil {
		return fmt.Errorf("seq %d (%s): %w", e.Seq, e.Type, err)
	}
	s.mu.Lock()
	s.applied = e.Seq
	// Drain successors that were parked behind the gap this just filled.
	for {
		next, ok := s.pending[s.applied+1]
		if !ok {
			break
		}
		delete(s.pending, next.Seq)
		s.mu.Unlock()
		if err := s.sys.ApplyReplicated(next); err != nil {
			return fmt.Errorf("seq %d (%s): %w", next.Seq, next.Type, err)
		}
		s.mu.Lock()
		s.applied = next.Seq
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// AppliedSeq is the contiguous applied watermark.
func (s *Standby) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// WaitApplied blocks until the applied watermark reaches seq, the
// context expires, the standby wedges, or its Run loop stops. It backs
// the leader-side ack barrier: a router calls the follower's
// /replication/wait with the leader's post-write ceiling and only then
// releases the client's acknowledgment.
func (s *Standby) WaitApplied(ctx context.Context, seq uint64) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.cond.Broadcast()
		case <-done:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.applied < seq {
		if s.err != nil {
			return s.err
		}
		if s.stopped {
			return fmt.Errorf("replicate: standby stopped")
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.cond.Wait()
	}
	return nil
}

// StandbyStats is the follower's /stats and metrics view.
type StandbyStats struct {
	AppliedSeq   uint64  `json:"applied_seq"`
	LeaderSeq    uint64  `json:"leader_seq"`
	Pending      int     `json:"pending"`
	LagSeconds   float64 `json:"lag_seconds"`
	Polls        int64   `json:"polls"`
	ShippedBytes int64   `json:"shipped_bytes"`
	Err          string  `json:"err,omitempty"`
}

// Stats snapshots the follower's counters.
func (s *Standby) Stats() StandbyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StandbyStats{
		AppliedSeq:   s.applied,
		LeaderSeq:    s.leaderSeq,
		Pending:      len(s.pending),
		LagSeconds:   s.lagSecondsLocked(),
		Polls:        s.polls,
		ShippedBytes: s.shipped,
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	return st
}

// LagSeconds is how long the follower has been behind the leader's
// advertised ceiling: 0 while caught up, otherwise seconds since it
// last was. This is the pphcr_replication_lag_seconds gauge.
func (s *Standby) LagSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagSecondsLocked()
}

func (s *Standby) lagSecondsLocked() float64 {
	if s.applied >= s.leaderSeq {
		return 0
	}
	return time.Since(s.caughtUp).Seconds()
}

// Promote turns the standby into a leader. The caller must have
// stopped Run (close its stop channel and wait) — Promote makes one
// final best-effort poll to drain anything the dying leader still
// serves, then replays the local log's unapplied suffix in sequence
// order and opens the WAL for writes (pphcr.PromoteStandby). On return
// the System acks its own writes; the returned Durability owns the
// directory. Waiters on WaitApplied are released by the Run loop's
// stop broadcast.
func (s *Standby) Promote(o pphcr.DurabilityOptions) (*pphcr.Durability, int, error) {
	// Final drain: if the leader is merely unreachable-to-the-router but
	// still up (e.g. a partition of the front door, not the node), this
	// narrows the unshipped window. Failure is expected and ignored.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = s.Poll(ctx)
	cancel()
	if err := s.Err(); err != nil {
		return nil, 0, fmt.Errorf("replicate: refusing to promote a wedged standby: %w", err)
	}
	s.mu.Lock()
	applied := s.applied
	// The suffix replay below re-reads records from disk; pending is
	// superseded by it.
	s.pending = make(map[uint64]durable.Event)
	s.mu.Unlock()
	o.Dir = s.dir
	dur, n, err := pphcr.PromoteStandby(s.sys, o, 0, applied)
	if err != nil {
		return nil, n, err
	}
	s.mu.Lock()
	s.applied = dur.WALSeq()
	s.mu.Unlock()
	return dur, n, nil
}

// SortEventsBySeq orders shipped/collected events by sequence — the
// order every apply path must use.
func SortEventsBySeq(events []durable.Event) {
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
}
