package scenario

import (
	"testing"
	"time"
)

// TestKillNode runs the in-process failover proof end to end: a write
// storm through the router, the leader crash-killed a third of the way
// in, the follower promoted by the router's health detector, and the
// acked-write oracle replayed against it.
func TestKillNode(t *testing.T) {
	rep, err := RunKillNode(KillNodeOptions{Seed: 2017, Duration: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked == 0 {
		t.Fatalf("no write was acked: %+v", rep)
	}
	if rep.LostAcked != 0 {
		t.Fatalf("%d acked writes lost across the failover (sample %v)", rep.LostAcked, rep.LostSample)
	}
	if rep.Failovers < 1 || rep.FailoverMs <= 0 || rep.FailoverMs > 10_000 {
		t.Fatalf("failover: %d failovers in %dms, want at least one within 10s", rep.Failovers, rep.FailoverMs)
	}
}
