package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"pphcr/internal/scenario"
)

// killNodeReport is the JSON shape of the kill-node run: the raw
// failover report plus a benchjson-compatible highlights map, so CI can
// merge failover_ms / replication_lag_ms into BENCH_prN.json with
// `pphcr-benchjson -scenario`.
type killNodeReport struct {
	KillNode   *scenario.FailoverReport `json:"kill_node"`
	Highlights map[string]float64       `json:"highlights"`
	SLOPass    bool                     `json:"slo_pass"`
	Checks     []string                 `json:"checks"`
}

// runKillNode is the -scenario kill-node entry point: a write storm
// through a replicated cluster's router, a kill of the leader
// mid-storm, and the zero-lost-acked-writes oracle. Without -router it
// builds an in-process two-node cluster (leader + warm standby behind
// the Router) and crash-kills the leader itself; with -router it
// storms that external cluster, whose leader the caller kills (CI
// SIGKILLs the process). Unlike the catalog scenarios it does not use
// the phase engine — its SLO is the invariant itself plus a
// failover-time bound, the same checks in both modes.
func runKillNode(seed int64, users, writers int, durScale float64, routerURL, followerURL string, gate bool, reportPath string) {
	rep, err := scenario.RunKillNode(scenario.KillNodeOptions{
		Seed:        seed,
		Users:       users,
		Writers:     writers,
		Duration:    time.Duration(float64(6*time.Second) * durScale),
		RouterURL:   routerURL,
		FollowerURL: followerURL,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	out := killNodeReport{
		KillNode: rep,
		Highlights: map[string]float64{
			"failover_ms":        float64(rep.FailoverMs),
			"replication_lag_ms": float64(rep.MaxLagMs),
		},
		SLOPass: true,
	}
	check := func(ok bool, format string, args ...interface{}) {
		line := fmt.Sprintf(format, args...)
		if ok {
			out.Checks = append(out.Checks, "PASS "+line)
		} else {
			out.Checks = append(out.Checks, "FAIL "+line)
			out.SLOPass = false
		}
	}
	check(rep.Acked > 0, "acked writes > 0 (got %d of %d)", rep.Acked, rep.Writes)
	check(rep.LostAcked == 0, "zero lost acked writes (lost %d, sample %v)", rep.LostAcked, rep.LostSample)
	check(rep.Failovers >= 1, "failover happened (got %d)", rep.Failovers)
	check(rep.FailoverMs > 0 && rep.FailoverMs <= 10_000,
		"failover bounded at 10s (took %dms)", rep.FailoverMs)

	fmt.Printf("kill-node: %d writes, %d acked, %d unacked, %d lost, failover %dms, max replication lag %dms\n",
		rep.Writes, rep.Acked, rep.Unacked, rep.LostAcked, rep.FailoverMs, rep.MaxLagMs)
	for _, c := range out.Checks {
		fmt.Println("  " + c)
	}

	if reportPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", reportPath)
	}
	if gate && !out.SLOPass {
		fmt.Fprintln(os.Stderr, "kill-node: gate FAILED")
		os.Exit(1)
	}
}
