package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
)

// followerFixture is a leader serving its WAL and a Follower tailing it
// behind its own HTTP server, the way cmd/pphcr-server runs the two
// roles.
type followerFixture struct {
	leaderDur *pphcr.Durability
	leaderSrv *httptest.Server
	standby   *Standby
	api       *httpapi.Server
	follower  *Follower
	url       string
}

func newFollowerFixture(t *testing.T, seed int64, onPromote func(*pphcr.Durability)) *followerFixture {
	t.Helper()
	leader, w, cfg := newWorldSystem(t, seed)
	leaderDir := t.TempDir()
	dur, err := pphcr.OpenDurability(leader, pphcr.DurabilityOptions{
		Dir: leaderDir, Sync: durable.SyncAlways, RetainSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dur.Crash)
	driveLeader(t, leader, w, 2, 10)
	mux := http.NewServeMux()
	NewSource(leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	leaderSrv := httptest.NewServer(mux)
	t.Cleanup(leaderSrv.Close)

	followerSys := freshSystem(t, cfg)
	standby, err := NewStandby(followerSys, t.TempDir(), leaderSrv.URL, "/replication")
	if err != nil {
		t.Fatal(err)
	}
	standby.Interval = 2 * time.Millisecond
	api := httpapi.NewServer(followerSys)
	api.SetReady(true)
	f := StartFollower(standby, api, durable.SyncAlways, onPromote)
	t.Cleanup(func() {
		f.Stop()
		if d := f.Durability(); d != nil {
			d.Close()
		}
	})
	fmux := http.NewServeMux()
	fmux.Handle("/", api.Handler())
	f.Mount(fmux)
	srv := httptest.NewServer(fmux)
	t.Cleanup(srv.Close)
	return &followerFixture{
		leaderDur: dur, leaderSrv: leaderSrv, standby: standby,
		api: api, follower: f, url: srv.URL,
	}
}

// do sends one request and returns the status and body.
func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestFollowerWaitAndStatus(t *testing.T) {
	fx := newFollowerFixture(t, 51, nil)
	ceil := fx.leaderDur.WALSeq()

	for _, q := range []string{
		"seq=abc", "seq=", "seq=-1",
		"seq=1&timeout_ms=0", "seq=1&timeout_ms=-5", "seq=1&timeout_ms=abc",
	} {
		if code, body := do(t, http.MethodGet, fx.url+"/replication/wait?"+q); code != http.StatusBadRequest {
			t.Errorf("wait?%s: got %d %s, want 400", q, code, body)
		}
	}
	if code, body := do(t, http.MethodGet, fmt.Sprintf("%s/replication/wait?seq=%d&timeout_ms=50", fx.url, ceil+1000)); code != http.StatusGatewayTimeout {
		t.Errorf("wait for an unreached seq: got %d %s, want 504", code, body)
	}

	code, body := do(t, http.MethodGet, fmt.Sprintf("%s/replication/wait?seq=%d&timeout_ms=30000", fx.url, ceil))
	if code != http.StatusOK {
		t.Fatalf("wait for the shipped ceiling: got %d %s, want 200", code, body)
	}
	var ack struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil || ack.Applied < ceil {
		t.Fatalf("wait answer %q: applied %d, want >= %d (err %v)", body, ack.Applied, ceil, err)
	}

	code, body = do(t, http.MethodGet, fx.url+"/replication/status")
	if code != http.StatusOK {
		t.Fatalf("status: got %d %s", code, body)
	}
	var st StandbyStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status %q: %v", body, err)
	}
	if st.AppliedSeq < ceil || st.LeaderSeq < ceil || st.Polls == 0 || st.ShippedBytes == 0 || st.Err != "" {
		t.Fatalf("implausible standby stats after catching up to %d: %+v", ceil, st)
	}
}

func TestFollowerPromote(t *testing.T) {
	var promotedDur *pphcr.Durability
	fx := newFollowerFixture(t, 52, func(d *pphcr.Durability) { promotedDur = d })
	ceil := fx.leaderDur.WALSeq()
	if code, body := do(t, http.MethodGet, fmt.Sprintf("%s/replication/wait?seq=%d&timeout_ms=30000", fx.url, ceil)); code != http.StatusOK {
		t.Fatalf("catching up: %d %s", code, body)
	}
	if role := fx.api.Role(); role != httpapi.RoleFollower {
		t.Fatalf("role before promotion = %q, want follower", role)
	}
	fx.leaderDur.Crash()
	fx.leaderSrv.Close()

	code, body := do(t, http.MethodPost, fx.url+"/replication/promote")
	if code != http.StatusOK || !strings.Contains(body, `"promoted":true`) || strings.Contains(body, `"already"`) {
		t.Fatalf("promote: got %d %s", code, body)
	}
	dur := fx.follower.Durability()
	if dur == nil || promotedDur != dur {
		t.Fatalf("promotion callback got %p, follower holds %p", promotedDur, dur)
	}
	if dur.WALSeq() < ceil {
		t.Fatalf("promoted WAL at seq %d, below the shipped ceiling %d", dur.WALSeq(), ceil)
	}
	code, body = do(t, http.MethodPost, fx.url+"/replication/promote")
	if code != http.StatusOK || !strings.Contains(body, `"already":true`) {
		t.Fatalf("second promote: got %d %s, want 200 already", code, body)
	}
	if role := fx.api.Role(); role != httpapi.RoleLeader {
		t.Fatalf("role after promotion = %q, want leader", role)
	}
	if code, body := do(t, http.MethodGet, fx.url+"/readyz"); code != http.StatusOK || !strings.Contains(body, `"role":"leader"`) {
		t.Fatalf("readyz after promotion: %d %s", code, body)
	}
}

// TestFollowerPromoteWedged refuses to promote a standby whose tail
// diverged (the sticky Err a corrupt ship or failed apply sets): the
// node answers 500, stays a follower, and keeps tailing so a later
// retry can succeed.
func TestFollowerPromoteWedged(t *testing.T) {
	called := false
	fx := newFollowerFixture(t, 53, func(*pphcr.Durability) { called = true })
	fx.standby.wedge(errors.New("corrupt shipped record"))

	code, body := do(t, http.MethodPost, fx.url+"/replication/promote")
	if code != http.StatusInternalServerError || !strings.Contains(body, "wedged") {
		t.Fatalf("promote of a wedged standby: got %d %s, want 500", code, body)
	}
	if role := fx.api.Role(); role != httpapi.RoleFollower {
		t.Fatalf("role after a failed promotion = %q, want follower", role)
	}
	if fx.follower.Durability() != nil || called {
		t.Fatal("a failed promotion opened a WAL or ran the promotion callback")
	}
	if code, _ := do(t, http.MethodGet, fx.url+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz of a wedged follower = %d, want 503", code)
	}

	// The resumed tail keeps polling the (still live) leader.
	polls := fx.standby.Stats().Polls
	deadline := time.Now().Add(10 * time.Second)
	for fx.standby.Stats().Polls <= polls {
		if time.Now().After(deadline) {
			t.Fatalf("tail did not resume after the failed promotion (polls stuck at %d)", polls)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyRunResumes restarts a stopped tail loop: waiters on the
// resumed standby time out normally instead of seeing "stopped", as
// soon as startTail returns.
func TestStandbyRunResumes(t *testing.T) {
	sys, _, _ := newWorldSystem(t, 54)
	standby, err := NewStandby(sys, t.TempDir(), "http://127.0.0.1:0", "/replication")
	if err != nil {
		t.Fatal(err)
	}
	standby.Interval = time.Millisecond
	f := &Follower{standby: standby}
	for round := 0; round < 2; round++ {
		f.startTail()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := standby.WaitApplied(ctx, 10)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: WaitApplied on a running tail = %v, want deadline exceeded", round, err)
		}
		f.stopTail()
	}
}
