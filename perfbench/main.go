// Command perfbench is the repository's benchmark. It builds the
// documented replicated deployment in one process — leader with a
// sync=always WAL, warm standby, router — over loopback HTTP, drives one
// workload's seeded open-loop traffic through the router, and prints
// one JSON line of metrics.
//
//	go build -o perfbench . && ./perfbench --workload commute-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps every layer in spans and reports per-layer metrics instead. See
// README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"pphcr"
)

// metricSet collects named metrics with their units.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	stall    time.Duration
	outDir   string
}

// A run sets the deployment up setupRuns times and recovers the crashed
// leader recoveryRuns times, reporting the medians, and runs the
// capacity phase for capacityPhase.
const (
	setupRuns     = 3
	recoveryRuns  = 15
	capacityPhase = 8 * time.Second
)

func main() {
	var o options
	var traceN int
	var stallMs float64
	flag.StringVar(&o.workload, "workload", "", "workload name: commute-warm, catalog-browse or listen-feedback")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the world and the traffic")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured open-loop phase")
	flag.IntVar(&traceN, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics untraced")
	flag.Float64Var(&stallMs, "stall-ms", 0, "attribution self-test: stall every /api/plan this long in the leader-mux wrapper")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the run record, spans and scratch data")
	flag.Parse()
	o.trace = traceN == 1
	o.stall = time.Duration(stallMs * float64(time.Millisecond))
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// record is everything one run measured, written beside the spans.
type record struct {
	Env       environment    `json:"env"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     bool           `json:"trace"`
	StallMs   float64        `json:"stall_ms"`
	Samples   map[string]int `json:"samples"`
	Metrics   metricSet      `json:"metrics"`
	Extra     metricSet      `json:"extra"`
	Failures  []string       `json:"failures,omitempty"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
}

// bench is one run in progress: the deployment, the client driving it,
// and the record the run's checks and metrics accumulate in.
type bench struct {
	o       options
	w       workload
	rates   [numOpKinds]float64
	nproc   int
	dur     time.Duration
	rec     *recorder
	c       *cluster
	bc      *benchClient
	drivers []*driver
	out     record
	// runDir holds the run's data directories; recoverySrc is the copy
	// of the leader's directory taken when the open-loop phase ends.
	runDir      string
	recoverySrc string
}

// fail records a failed check; the first ten messages are kept.
func (b *bench) fail(n int, msg string) {
	b.out.Failed += n
	if len(b.out.Failures) < 10 {
		b.out.Failures = append(b.out.Failures, msg)
	}
}

// count adds completed operations to attempted, and their errors to
// failed.
func (b *bench) count(rs []opResult) {
	b.out.Attempted += len(rs)
	for _, r := range rs {
		if r.err != nil {
			b.fail(1, r.err.Error())
		}
	}
}

func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be positive")
	}
	rates, err := w.rates()
	if err != nil {
		return nil, err
	}
	b := &bench{
		o: o, w: w, rates: rates, nproc: runtime.NumCPU(), dur: time.Duration(o.seconds) * time.Second,
		rec: newRecorder(o.trace, o.stall),
		out: record{
			Env: stamp(), Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			StallMs: float64(o.stall) / 1e6, Samples: map[string]int{}, Extra: metricSet{},
		},
	}
	b.runDir = filepath.Join(o.outDir, "runs", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	b.recoverySrc = filepath.Join(b.runDir, "recovery-src")
	defer os.RemoveAll(b.runDir)

	setupTimes, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer b.c.close()
	if err := b.prepare(); err != nil {
		return nil, err
	}
	defer b.bc.close()

	// The broadcaster's feed publishes through the open-loop phase only:
	// in the capacity phase its invalidations would make the figure
	// depend on where the publishes fall among the windows.
	stopFeed := b.startFeed()
	ol := b.openLoop()
	stopFeed()
	// sync=always made every write so far durable: this copy is the
	// directory a crash at the end of the open-loop phase would leave,
	// so recovery_s replays the seeded schedule's log, not the capacity
	// phase's, whose length depends on the host's speed.
	if err := copyDir(b.c.leaderDir, b.recoverySrc); err != nil {
		return nil, fmt.Errorf("copying the leader's directory: %w", err)
	}
	capStart := b.rec.now()
	// nproc closed-loop clients in all, split between the two lanes.
	capRes := b.bc.closedLoop(schedule(rates, o.seed+1, len(b.drivers), b.dur), max(1, b.nproc/2), capacityPhase)
	b.count(capRes)
	capacity, capWindows := capacityRate(capRes, capStart, capacityPhase)
	for i, v := range capWindows {
		b.out.Extra.set(fmt.Sprintf("capacity_window%d_rps", i), "1/s", v)
	}
	b.measureTraps(capRes)
	capRes = nil // the heap figure is the deployment's, not the benchmark's
	heap := liveHeapMB()

	recoveries, replayed, err := b.crashAndRecover()
	if err != nil {
		return nil, err
	}

	e2e := b.endToEnd(ol, setupTimes, recoveries)
	e2e.set("capacity_rps", "1/s", capacity)
	e2e.set("live_heap_mb", "MiB", heap)
	if o.trace {
		b.out.Metrics = metricSet{}
		layerMetrics(b.out.Metrics, b.out.Extra, b.rec, ol.results, ol.kMid, ol.k1, ol.start.Add(b.dur/2), b.dur, b.c)
		b.out.Metrics.set("durable.replayed_events", "count", float64(replayed))
		for k, v := range e2e {
			b.out.Extra[k] = v
		}
	} else {
		b.out.Metrics = e2e
	}
	if err := writeRecord(o.outDir, b.out, b.rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
	report(os.Stderr, b.out)
	return &result{Correct: len(b.out.Failures) == 0, Attempted: b.out.Attempted, Failed: b.out.Failed, Metrics: b.out.Metrics}, nil
}

// setUp builds the deployment setupRuns times from scratch and keeps
// the last one; it returns each set-up's duration.
func (b *bench) setUp() ([]float64, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // each set-up starts from the same collected heap
		start := time.Now()
		c, err := buildCluster(b.w.spec, b.o.seed, filepath.Join(b.runDir, fmt.Sprint("setup", i)), b.rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			c.close()
		} else {
			b.c = c
		}
	}
	return times, nil
}

// prepare checks the deployment's knobs, picks the drivers and the
// feedback items, and opens the client.
func (b *bench) prepare() error {
	if err := checkDefaults(b.c); err != nil {
		return err
	}
	anchor := b.w.spec.anchor(b.c.world)
	personas, err := prepareDrivers(b.c.world, anchor)
	if err != nil {
		return err
	}
	if b.drivers, err = qualifyingDrivers(b.c.routerSrv.URL, personas); err != nil {
		return err
	}
	b.out.Samples["drivers"] = len(b.drivers)
	items := b.c.leader.Candidates(b.c.clock())
	if len(items) == 0 {
		return errors.New("empty candidate window at the world clock")
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	b.bc = newBenchClient(b.c.routerSrv.URL, b.o.seed, 2*b.nproc, b.drivers, items, b.c.clock, anchor, b.rec)
	return nil
}

// startFeed starts the broadcaster's live feed, which publishes
// held-back podcasts through the leader's IngestPodcast; the returned
// function stops it and counts the ingests.
func (b *bench) startFeed() (stop func()) {
	if b.w.ingestEvery == 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var ingested int
	var errs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(b.w.ingestEvery)
		defer t.Stop()
		for _, raw := range b.c.feed {
			select {
			case <-done:
				return
			case <-t.C:
			}
			end := b.rec.span(spanIngest, 0, "", "")
			_, err := b.c.leader.IngestPodcast(raw)
			end(0)
			ingested++
			if err != nil {
				errs = append(errs, fmt.Errorf("ingesting %s: %w", raw.ID, err))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		b.out.Attempted += ingested
		b.out.Extra.set("ingest.items", "count", float64(ingested))
		for _, err := range errs {
			b.fail(1, err.Error())
		}
	}
}

// openLoopRun is the open-loop phase's outcome: every operation, and the
// layer counters at its start, its traced half's start and its end.
type openLoopRun struct {
	start        time.Time
	results      []opResult
	k0, kMid, k1 counters
}

// checkpointAt is where in the open-loop phase the leader takes its
// periodic checkpoint. The server's checkpointer ticks once a minute,
// after the first full interval, so left to itself it would never fire
// in a phase this short; the benchmark takes the tick it would take in
// a longer run, inside the traced half.
const checkpointAt = 0.75

// openLoop sends the workload's schedule. A traced run records spans
// over the phase's second half only, so the first half measures the
// same traffic untraced.
func (b *bench) openLoop() openLoopRun {
	ol := openLoopRun{start: time.Now().Add(20 * time.Millisecond)}
	ol.k0 = readCounters(b.c, b.bc)
	var wg sync.WaitGroup
	if b.o.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(ol.start.Add(b.dur / 2)))
			ol.kMid = readCounters(b.c, b.bc)
			b.rec.on.Store(true)
		}()
	}
	var ckErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(ol.start.Add(time.Duration(checkpointAt * float64(b.dur)))))
		start := time.Now()
		ckErr = b.c.checkpoint.Poll()
		b.out.Extra.set("checkpoint_s", "s", time.Since(start).Seconds())
	}()
	ol.results = b.bc.openLoop(schedule(b.rates, b.o.seed, len(b.drivers), b.dur), b.nproc, ol.start)
	wg.Wait()
	b.rec.on.Store(false)
	ol.k1 = readCounters(b.c, b.bc)
	b.count(ol.results)
	b.out.Attempted++
	if ckErr != nil {
		b.fail(1, fmt.Sprintf("checkpoint: %v", ckErr))
	}
	return ol
}

// measureTraps measures two of the traps the README documents on every
// run: the client library's Recommendations sends no unix, and a
// closed-loop writer phase-locks to the standby's poll.
func (b *bench) measureTraps(capRes []opResult) {
	start := time.Now()
	items := 0
	for _, d := range b.drivers {
		if recs, err := b.bc.api.Recommendations(context.Background(), d.user, 10); err == nil {
			items += len(recs)
		}
	}
	n := float64(len(b.drivers))
	b.out.Extra.set("trap.no_unix_recommend_ms", "ms", float64(time.Since(start))/1e6/n)
	b.out.Extra.set("trap.no_unix_recommend_items", "count", float64(items)/n)
	var closed []float64
	for _, r := range capRes {
		if r.err == nil && r.kind.isWrite() {
			closed = append(closed, float64(r.latency())/1e6)
		}
	}
	b.out.Extra.set("trap.closed_loop_write_p50_ms", "ms", quantile(closed, 0.5))
}

// crashAndRecover crash-kills the leader and checks every acknowledged
// write is on the standby and on the crashed directory reopened on a
// fresh System. It then times recoveryRuns recoveries, each reopening a
// fresh copy of the directory as the open-loop phase left it, and
// returns their durations and the WAL events the last one replayed.
func (b *bench) crashAndRecover() (times []float64, replayed int, err error) {
	b.c.crashLeader()
	acked := b.bc.acked.count()
	b.out.Attempted += acked
	if n := b.bc.acked.missingOn(b.c.follower); n > 0 {
		b.fail(n, fmt.Sprintf("%d of %d acked writes missing on the standby", n, acked))
	}
	sys, d, _, err := b.recover(b.c.leaderDir)
	if err != nil {
		return nil, 0, err
	}
	if n := b.bc.acked.missingOn(sys); n > 0 {
		b.fail(n, fmt.Sprintf("%d of %d acked writes missing on the recovered leader", n, acked))
	}
	d.Crash()

	b.rec.on.Store(b.o.trace) // the spans file keeps the timed OpenDurability calls
	defer b.rec.on.Store(false)
	for i := 0; i < recoveryRuns; i++ {
		dir := filepath.Join(b.runDir, fmt.Sprint("recovery", i))
		if err := copyDir(b.recoverySrc, dir); err != nil {
			return nil, 0, err
		}
		_, d, took, err := b.recover(dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
		replayed = d.ReplayedEvents()
		d.Crash()
		os.RemoveAll(dir)
	}
	for i, v := range times {
		b.out.Extra.set(fmt.Sprintf("recovery%d_s", i), "s", v)
	}
	return times, replayed, nil
}

// recover reopens a leader directory on a fresh System, as a restarted
// pphcr-server would, and returns how long OpenDurability took. The
// System is built and the heap collected before the clock starts.
func (b *bench) recover(dir string) (*pphcr.System, *pphcr.Durability, time.Duration, error) {
	sys, err := pphcr.New(b.c.cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	end := b.rec.span(spanOpenDur, 0, "", "")
	d, err := pphcr.OpenDurability(sys, leaderDurability(dir))
	end(0)
	took := time.Since(start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("recovery: %w", err)
	}
	return sys, d, took, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// endToEnd computes the end-to-end metrics from the open-loop phase.
// Read percentiles are the median over the phase's windowSeconds windows of each
// window's percentile, so one stalled window does not set the figure;
// writes are too few for windows.
func (b *bench) endToEnd(ol openLoopRun, setupTimes, recoveries []float64) metricSet {
	var lat [numOpKinds][]sample
	completed := 0
	for _, r := range ol.results {
		if r.err == nil {
			completed++
			at := time.Duration(r.intended) - ol.start.Sub(b.rec.epoch)
			lat[r.kind] = append(lat[r.kind], sample{at: at, v: float64(r.latency()) / 1e6})
		}
	}
	writes := append(append([]sample(nil), lat[opFeedback]...), lat[opTrack]...)
	reads := map[string][]sample{"plan": lat[opPlan], "recommend": lat[opRecommend]}
	b.out.Samples["plan"], b.out.Samples["recommend"], b.out.Samples["write"] = len(lat[opPlan]), len(lat[opRecommend]), len(writes)

	m := metricSet{}
	pct := func(name string, xs []sample, q float64, windows int) {
		v, err := windowedQuantile(xs, q, b.dur, windows)
		if err != nil {
			b.fail(0, fmt.Sprintf("%s: %v", name, err))
		}
		m.set(fmt.Sprintf("%s_p%g_ms", name, q*100), "ms", v)
	}
	windows := max(1, b.o.seconds/windowSeconds)
	for _, name := range []string{"plan", "recommend"} {
		pct(name, reads[name], 0.5, windows)
		pct(name, reads[name], 0.9, windows)
	}
	pct("write_ack", writes, 0.5, 1)
	pct("write_ack", writes, 0.9, 1)
	m.set("setup_s", "s", median(setupTimes))
	m.set("cpu_ms_per_op", "ms", ratio(float64(ol.k1.cpu-ol.k0.cpu)/1e6, float64(completed)))
	m.set("recovery_s", "s", median(recoveries))

	// Whole-phase percentiles and each set-up go into the record.
	reads["write"] = writes
	for name, xs := range reads {
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if v, err := windowedQuantile(xs, q, b.dur, 1); err == nil {
				b.out.Extra.set(fmt.Sprintf("%s_p%g_ms", name, q*100), "ms", v)
			}
		}
	}
	for i, v := range setupTimes {
		b.out.Extra.set(fmt.Sprintf("setup%d_s", i), "s", v)
	}
	return m
}
