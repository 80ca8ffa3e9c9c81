package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
)

// Follower is a node's follower role: it runs a Standby's tail loop,
// serves the router's semi-sync ack barrier and the promote endpoint
// that turns the node into the partition leader in place, and keeps
// the httpapi server's role, lag and readiness in step with both.
// cmd/pphcr-server's -role follower and the kill-node harness run it.
type Follower struct {
	standby *Standby
	api     *httpapi.Server
	sync    durable.SyncPolicy
	// onPromote runs once, after the node became leader: the place for
	// the leader's background services (checkpointer, compactors). nil
	// runs none.
	onPromote func(*pphcr.Durability)

	// mu serializes promotion and Stop. Promotion holds it across
	// Standby methods, so it sits above Standby.mu.
	mu sync.Mutex
	// tailStop/tailDone drive the running tail loop; tailStop is nil
	// once the tail stopped for good (promoted or Stop).
	tailStop chan struct{}
	tailDone chan struct{}
	dur      *pphcr.Durability // the post-promotion WAL
}

// StartFollower starts tailing with standby and wires the follower's
// role, replication lag and readiness into api. A wedged tail (corrupt
// ship, apply failure) fails readiness: the node can no longer converge
// on the leader's state. Promotion opens the WAL with sync.
func StartFollower(standby *Standby, api *httpapi.Server, sync durable.SyncPolicy, onPromote func(*pphcr.Durability)) *Follower {
	f := &Follower{standby: standby, api: api, sync: sync, onPromote: onPromote}
	f.startTail()
	api.SetRole(httpapi.RoleFollower)
	api.SetReplicationLag(standby.LagSeconds)
	api.SetReadinessCheck(standby.Err)
	return f
}

// startTail starts the tail loop. The stop mark of a previous loop is
// cleared before it returns, so a wait that arrives after a failed
// promotion blocks rather than seeing "standby stopped".
func (f *Follower) startTail() {
	f.standby.resume()
	stop, done := make(chan struct{}), make(chan struct{})
	f.tailStop, f.tailDone = stop, done
	go func() {
		defer close(done)
		f.standby.Run(stop)
	}()
}

func (f *Follower) stopTail() {
	close(f.tailStop)
	<-f.tailDone
	f.tailStop = nil
}

// A follower serves its endpoints under followerPrefix; the Router
// calls waitPath and promotePath there.
const (
	followerPrefix = "/replication"
	waitPath       = followerPrefix + "/wait"
	promotePath    = followerPrefix + "/promote"
)

// Mount serves the ack-barrier wait, the standby's counters and the
// promote endpoint under /replication.
func (f *Follower) Mount(mux *http.ServeMux) {
	mux.HandleFunc(http.MethodGet+" "+waitPath, f.handleWait)
	mux.HandleFunc(http.MethodGet+" "+followerPrefix+statusPath, f.handleStatus)
	mux.HandleFunc(http.MethodPost+" "+promotePath, f.handlePromote)
}

// Stop ends tailing on process shutdown. A no-op once promoted.
func (f *Follower) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tailStop != nil {
		f.stopTail()
	}
}

// Durability returns the WAL promotion opened, nil while following.
// The owner closes it on shutdown like any leader's.
func (f *Follower) Durability() *pphcr.Durability {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dur
}

// handleWait is the router's semi-sync ack barrier: it blocks until
// this follower has applied at least seq, bounded by timeout_ms
// (default 5s).
func (f *Follower) handleWait(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, `{"error":"seq must be an unsigned integer"}`, http.StatusBadRequest)
		return
	}
	timeout := 5 * time.Second
	if ms := q.Get("timeout_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 {
			http.Error(w, `{"error":"timeout_ms must be a positive integer"}`, http.StatusBadRequest)
			return
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := f.standby.WaitApplied(ctx, seq); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusGatewayTimeout)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"applied":%d}`+"\n", f.standby.AppliedSeq())
}

func (f *Follower) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.standby.Stats())
}

// errStopped refuses a promotion after Stop.
var errStopped = errors.New("follower stopped")

// promote turns this follower into the partition leader in place: stop
// tailing, replay any shipped-but-unapplied WAL suffix, open a live WAL
// over the local directory, open the write gate. fresh reports whether
// this call promoted; once promoted it returns the WAL again. A failed
// promotion resumes tailing so a later retry can succeed.
func (f *Follower) promote() (dur *pphcr.Durability, replayed int, fresh bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dur != nil {
		return f.dur, 0, false, nil
	}
	if f.tailStop == nil {
		return nil, 0, false, errStopped
	}
	f.api.SetRole(httpapi.RolePromoting)
	f.stopTail()
	dur, replayed, err = f.standby.Promote(pphcr.DurabilityOptions{
		Sync: f.sync, RetainSegments: true,
	})
	if err != nil {
		f.startTail()
		f.api.SetRole(httpapi.RoleFollower)
		return nil, 0, false, err
	}
	f.dur = dur
	f.api.SetWALSeq(dur.WALSeq)
	f.api.SetDurabilityStats(func() interface{} { return dur.Stats() })
	f.api.SetReadinessCheck(dur.Healthy)
	f.api.SetDegradedCheck(dur.Degraded)
	f.api.SetReplicationLag(func() float64 { return 0 })
	f.api.SetRole(httpapi.RoleLeader)
	return dur, replayed, true, nil
}

// handlePromote is the router's promote call. Idempotent: a repeat (a
// router retrying a lost response) answers 200 with "already":true.
func (f *Follower) handlePromote(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	dur, replayed, fresh, err := f.promote()
	switch {
	case errors.Is(err, errStopped):
		http.Error(w, `{"error":"follower stopped"}`, http.StatusServiceUnavailable)
		return
	case err != nil:
		slog.Error("promotion failed, tailing resumed", "err", err)
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !fresh {
		fmt.Fprintf(w, `{"promoted":true,"applied_seq":%d,"already":true}`+"\n", dur.WALSeq())
		return
	}
	// Only the request that promoted runs the owner's callback, and
	// outside mu.
	if f.onPromote != nil {
		f.onPromote(dur)
	}
	ms := time.Since(start).Milliseconds()
	slog.Warn("promoted to leader",
		"replayed", replayed, "applied_seq", dur.WALSeq(), "promote_ms", ms)
	fmt.Fprintf(w, `{"promoted":true,"replayed":%d,"applied_seq":%d,"promote_ms":%d}`+"\n",
		replayed, dur.WALSeq(), ms)
}
