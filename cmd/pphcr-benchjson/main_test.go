package main

import (
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	const factor = 1.5
	cases := []struct {
		name      string
		base, cur map[string]float64
		fail      string // substring of the one expected failure; "" for a pass
	}{
		{"lower-is-better within factor", map[string]float64{"plan_cold_ns": 1000}, map[string]float64{"plan_cold_ns": 1400}, ""},
		{"lower-is-better at the factor edge", map[string]float64{"plan_cold_ns": 1000}, map[string]float64{"plan_cold_ns": 1500}, ""},
		{"lower-is-better past the edge", map[string]float64{"plan_cold_ns": 1000}, map[string]float64{"plan_cold_ns": 1501}, "plan_cold_ns"},
		{"lower-is-better improved", map[string]float64{"plan_cold_ns": 1000}, map[string]float64{"plan_cold_ns": 10}, ""},
		{"lower-is-better at zero", map[string]float64{"replication_lag_ms": 50}, map[string]float64{"replication_lag_ms": 0}, ""},
		{"higher-is-better within factor", map[string]float64{"ann_speedup_x": 18}, map[string]float64{"ann_speedup_x": 13}, ""},
		{"higher-is-better at the factor edge", map[string]float64{"ann_speedup_x": 18}, map[string]float64{"ann_speedup_x": 12}, ""},
		{"higher-is-better past the edge", map[string]float64{"ann_speedup_x": 18}, map[string]float64{"ann_speedup_x": 11.9}, "ann_speedup_x"},
		{"higher-is-better improved", map[string]float64{"ann_speedup_x": 18}, map[string]float64{"ann_speedup_x": 40}, ""},
		{"recall collapsed to zero", map[string]float64{"ann_recall_at_k": 1}, map[string]float64{"ann_recall_at_k": 0}, "ann_recall_at_k"},
		{"throughput collapsed below zero", map[string]float64{"recovery_events_per_sec": 1e5}, map[string]float64{"recovery_events_per_sec": -1}, "recovery_events_per_sec"},
		{"zero baseline is skipped", map[string]float64{"ann_recall_at_k": 0}, map[string]float64{"ann_recall_at_k": 0}, ""},
		{"missing from the baseline is skipped", map[string]float64{}, map[string]float64{"failover_ms": 1e9}, ""},
		{"missing from the run is skipped", map[string]float64{"failover_ms": 200}, map[string]float64{}, ""},
		{"ungated highlight is ignored", map[string]float64{"preferences_replay_ns": 1}, map[string]float64{"preferences_replay_ns": 1e9}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := gate(tc.base, tc.cur, factor)
			if tc.fail == "" {
				if len(got) != 0 {
					t.Fatalf("gate failed: %v", got)
				}
				return
			}
			if len(got) != 1 || !strings.HasPrefix(got[0], tc.fail+":") {
				t.Fatalf("gate = %v, want one failure for %s", got, tc.fail)
			}
		})
	}
}

func TestParseBenchKeepsZeroRecall(t *testing.T) {
	const in = `pkg: pphcr
BenchmarkCandidateANN-8   	     100	     52000 ns/op	         0 recall-at-k
BenchmarkPlanTripCold-8   	     100	    900000 ns/op	   1200000 p99-ns/op
`
	out := Output{Highlights: map[string]float64{}}
	if err := parseBench(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if r, ok := out.Highlights["ann_recall_at_k"]; !ok || r != 0 {
		t.Fatalf("ann_recall_at_k = %v (present %v), want a kept 0", r, ok)
	}
	if got := out.Highlights["candidate_ann_ns"]; got != 52000 {
		t.Fatalf("candidate_ann_ns = %v, want 52000", got)
	}
	if got := out.Highlights["plan_p99_ns"]; got != 1200000 {
		t.Fatalf("plan_p99_ns = %v, want 1200000", got)
	}
	if len(out.Benchmarks) != 2 || out.Benchmarks[0].Pkg != "pphcr" {
		t.Fatalf("benchmarks = %+v", out.Benchmarks)
	}
	if failures := gate(map[string]float64{"ann_recall_at_k": 1}, out.Highlights, 1.5); len(failures) != 1 {
		t.Fatalf("a parsed zero recall must trip the gate, got %v", failures)
	}
}
