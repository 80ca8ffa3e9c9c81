package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// layerMetrics computes the per-layer metrics of a traced run from the
// spans and the counters of its traced window [kMid, k1], which starts
// at tracedFrom.
func layerMetrics(m, extra metricSet, rec *recorder, results []opResult, kMid, k1 counters,
	tracedFrom time.Time, dur time.Duration, c *cluster) {
	from := int64(tracedFrom.Sub(rec.epoch))
	var lates []float64
	var traced, untraced [2]float64 // reads: sum of latencies, count
	tracedOps := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		lates = append(lates, float64(r.late())/1e6)
		if r.kind.isWrite() {
			if r.sent >= from {
				tracedOps++
			}
			continue
		}
		switch {
		case r.sent >= from:
			traced[0] += float64(r.latency())
			traced[1]++
			tracedOps++
		case r.done < from:
			untraced[0] += float64(r.latency())
			untraced[1]++
		}
	}
	m.set("loadgen.start_late_p50_ms", "ms", quantile(lates, 0.5))
	m.set("loadgen.start_late_p99_ms", "ms", quantile(lates, 0.99))
	m.set("loadgen.achieved_rps", "1/s", float64(len(lates))/dur.Seconds())
	m.set("trace.overhead_share", "ratio", ratio(traced[0], traced[1])/ratio(untraced[0], untraced[1])-1)

	layerCounters(kMid, k1, tracedOps, m)
	spans := rec.snapshot()
	walMean := k1.append.Delta(kMid.append).MeanNs()
	a := attribute(spans, walMean)
	plan, recm := a.byKind[opPlan], a.byKind[opRecommend]
	write := merge(a.byKind[opFeedback], a.byKind[opTrack])
	all := merge(plan, recm, write)

	m.set("client.self_us_per_op", "us", us(all.per(all.client)))
	m.set("router.self_us_per_op", "us", us(all.per(all.router)))
	m.set("router.ack_wait_p50_ms", "ms", ms(quantile(a.ackWaits, 0.5)))
	m.set("router.ack_wait_p95_ms", "ms", ms(quantile(a.ackWaits, 0.95)))
	m.set("router.ack_wait_share", "ratio", ratio(write.ackWait, write.e2e))
	non2xx := 0
	var repl, files int
	var ingestNs []float64
	for _, s := range spans {
		switch s.name {
		case spanRouter:
			if s.status >= 300 {
				non2xx++
			}
		case spanRepl:
			repl++
			if strings.HasSuffix(s.route, "/file") {
				files++
			}
		case spanIngest:
			ingestNs = append(ingestNs, float64(s.dur()))
		}
	}
	m.set("router.non2xx", "count", float64(non2xx))
	for _, k := range []opKind{opPlan, opRecommend, opFeedback, opTrack} {
		m.set("httpapi."+opNames[k]+".self_us_per_op", "us", us(a.byKind[k].per(a.byKind[k].httpapi)))
	}
	m.set("pipeline.plan_us_per_op", "us", us(plan.per(plan.pipe)))
	m.set("pipeline.recommend_us_per_op", "us", us(recm.per(recm.pipe)))
	m.set("pipeline.recommend_share", "ratio", ratio(recm.pipe, recm.e2e))
	// The deployment's own time on a recommendation runs from the router's
	// handler down: router, leader mux and pipeline.
	m.set("pipeline.recommend_server_share", "ratio", ratio(recm.pipe, recm.router+recm.httpapi+recm.pipe))
	m.set("pipeline.window_items", "count", float64(len(c.leader.Candidates(c.clock()))))
	m.set("durable.append_mean_us", "us", us(walMean))
	m.set("pphcr.ingest_ms_per_item", "ms", ms(mean(ingestNs)))
	polls := float64(k1.standby.Polls - kMid.standby.Polls)
	m.set("standby.useful_poll_ratio", "ratio", ratio(float64(files), polls))
	m.set("trace.plan_path_share", "ratio", ratio(plan.sum(), plan.e2e))
	m.set("trace.recommend_path_share", "ratio", ratio(recm.sum(), recm.e2e))
	m.set("trace.write_path_share", "ratio", ratio(write.sum(), write.e2e))
	m.set("trace.unlinked", "count", float64(a.unlinked))
	extra.set("trace.spans", "count", float64(len(spans)))

	// The blocking-path breakdown behind the shares, for the record.
	for name, s := range map[string]layerShare{"plan": plan, "recommend": recm, "write": write} {
		extra.set("path."+name+".ops", "count", float64(s.ops))
		for layer, total := range map[string]float64{
			"e2e": s.e2e, "loadgen": s.loadgen, "client": s.client, "router": s.router, "httpapi": s.httpapi,
			"pipeline": s.pipe, "wal": s.wal, "ack_wait": s.ackWait,
		} {
			extra.set("path."+name+"."+layer+"_us", "us", us(s.per(total)))
		}
	}
	extra.set("standby.replication_requests", "count", float64(repl))
}

// environment stamps a record with what it ran on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func stamp() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit identifies the code measured: the VCS revision when the build
// recorded one, else a hash of the Go sources under the working
// directory (the checkout the benchmark runs from).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeRecord writes the run record and, for a traced run, its spans
// (one JSON object per line) under dir.
func writeRecord(dir string, rcd record, rec *recorder) error {
	name := fmt.Sprintf("%s-seed%d-trace%v", rcd.Workload, rcd.Seed, rcd.Trace)
	if err := os.MkdirAll(filepath.Join(dir, "records"), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rcd, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "records", name+".json"), b, 0o644); err != nil {
		return err
	}
	if !rcd.Trace {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "records", name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range rec.snapshot() {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"req":%d,"user":%q,"route":%q,"seq":%d,"status":%d}`+"\n",
			s.id, s.name, s.start, s.end, s.req, s.user, s.route, s.seq, s.status)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run's metrics for a human on w.
func report(w io.Writer, r record) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q\n",
		r.Workload, r.Seed, r.Trace, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit, r.Env.CPUModel)
	fmt.Fprintf(w, "  samples: %v  attempted=%d failed=%d\n", r.Samples, r.Attempted, r.Failed)
	for _, set := range []metricSet{r.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-40s %12.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILURE:", f)
	}
}
