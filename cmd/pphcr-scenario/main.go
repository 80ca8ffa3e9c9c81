// Command pphcr-scenario drives named city-scale scenarios — rush-hour
// commute ramps, breaking-news flash crowds, churn storms, ephemeral
// context shifts, degraded-disk brown-outs — against a live System at
// 100k+ simulated users, judges the run against an SLO spec, and emits
// a per-phase, per-stage tail report (human text and benchjson-
// compatible JSON).
//
// Usage:
//
//	pphcr-scenario -scenario city-day -users 100000 -slo 'plan_p99=250ms,error_rate=0.01,recovery=10s,readyz_stable' -gate
//	pphcr-scenario -list
//	pphcr-scenario -scenario kill-node -gate
//	pphcr-scenario -scenario kill-node -router http://127.0.0.1:8000 -follower http://127.0.0.1:8081 -gate
//
// CI runs a scaled-down pass (-scale / -duration-scale) with -gate: a
// breached SLO fails the build — the repo's first tail-latency gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/pipeline"
	"pphcr/internal/scenario"
	"pphcr/internal/synth"
)

// slowRank wraps the Rank stage with an injected stall — the SLO
// gate's self-test: CI proves the gate trips by running a scaled-down
// scenario with -inject-slow-rank and expecting failure.
type slowRank struct {
	inner pipeline.Rank
	delay time.Duration
}

func (s slowRank) Rank(b *pipeline.Batch, t *pipeline.Task) {
	time.Sleep(s.delay)
	s.inner.Rank(b, t)
}

func main() {
	var (
		name        = flag.String("scenario", "city-day", "named scenario to run (see -list)")
		list        = flag.Bool("list", false, "list the scenario catalog and exit")
		users       = flag.Int("users", 0, "simulated population (0 = the scenario's default)")
		drivers     = flag.Int("drivers", 0, "drivers with mobility models (0 = the scenario's default)")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 2017, "deterministic seed: schedule, world and population")
		scale       = flag.Float64("scale", 1.0, "multiply every phase arrival rate")
		durScale    = flag.Float64("duration-scale", 1.0, "multiply every phase duration")
		sloSpec     = flag.String("slo", "", "SLO spec, e.g. plan_p99=250ms,error_rate=0.01,recovery=10s,readyz_stable")
		gate        = flag.Bool("gate", false, "exit 1 when an SLO check fails")
		reportPath  = flag.String("report", "", "write the JSON report to this file")
		dataDir     = flag.String("data-dir", "", "durability directory (default: a temp dir, removed afterwards)")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always, interval, none — or 'off' to run without durability")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /stats and /readyz here while the scenario runs")
		slowRankUS  = flag.Int("inject-slow-rank", 0, "inject this many microseconds of stall into the Rank stage (SLO-gate self-test)")
		routerURL   = flag.String("router", "", "kill-node: storm this external cluster's router instead of building one in-process")
		followerURL = flag.String("follower", "", "kill-node with -router: the standby's base URL, polled for replication lag")
	)
	flag.Parse()

	if *list {
		for _, n := range scenario.Names() {
			s, _ := scenario.ByName(n)
			fmt.Printf("%-14s %s (%d users, %d drivers, %v)\n",
				s.Name, s.Description, s.Users, s.Drivers, s.TotalDuration())
		}
		fmt.Printf("%-14s %s\n", "kill-node",
			"two-node replicated cluster (in-process, or -router's), leader killed mid-storm, zero-lost-acked-writes oracle")
		return
	}

	// Deployment addresses that would be silently dropped are usage
	// errors: -follower only names the standby of -router's cluster, and
	// only kill-node storms an external cluster.
	switch {
	case *followerURL != "" && *routerURL == "":
		usageError("-follower needs -router")
	case *routerURL != "" && *name != "kill-node":
		usageError("-router applies only to -scenario kill-node")
	}

	// kill-node is not a catalog scenario: it storms a two-node
	// replicated cluster (its own, or -router's) instead of driving one
	// System through the phase engine, and its SLO is the
	// zero-lost-acked-writes invariant.
	if *name == "kill-node" {
		runKillNode(*seed, *users, *workers, *durScale, *routerURL, *followerURL, *gate, *reportPath)
		return
	}

	script, ok := scenario.ByName(*name)
	if !ok {
		log.Fatalf("unknown scenario %q (try -list)", *name)
	}
	if *users > 0 {
		script.Users = *users
	}
	if *drivers > 0 {
		script.Drivers = *drivers
	}
	slo, err := scenario.ParseSpec(*sloSpec)
	if err != nil {
		log.Fatal(err)
	}

	// The synthetic world only needs enough personas to clone from and
	// enough corpus for the candidate window; the population builder
	// scales it to Script.Users.
	personas := script.Drivers + 50
	if personas > script.Users {
		personas = script.Users
	}
	if personas < 50 {
		personas = 50
	}
	log.Printf("generating world (seed=%d personas=%d)...", *seed, personas)
	w, err := synth.GenerateWorld(synth.Params{
		Seed: *seed, Days: 3, Users: personas, Stations: 4,
		PodcastsPerDay: 30, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := pphcr.New(pphcr.Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	if *slowRankUS > 0 {
		pipe := sys.Pipeline()
		pipe.Rank = slowRank{inner: pipe.Rank, delay: time.Duration(*slowRankUS) * time.Microsecond}
		log.Printf("injected %dµs stall into the Rank stage", *slowRankUS)
	}

	pop, err := scenario.BuildPopulation(sys, w, script.Users, script.Drivers, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	// Durability attaches after the preload (the preload is boot state,
	// not workload) and a checkpoint folds it in, so the WAL carries
	// only what the scenario writes.
	var dur *pphcr.Durability
	if *walSync != "off" {
		dir := *dataDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "pphcr-scenario-*")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(dir)
		}
		policy, err := durable.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		dur, err = pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir, Sync: policy})
		if err != nil {
			log.Fatal(err)
		}
		defer dur.Close()
		if err := dur.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		log.Printf("durability enabled in %s (wal-sync=%s)", dir, policy)
	}

	eng := scenario.NewEngine(sys, dur, pop, scenario.Options{
		Seed:          *seed,
		Workers:       *workers,
		RateScale:     *scale,
		DurationScale: *durScale,
		Logf:          log.Printf,
	})

	if *metricsAddr != "" {
		api := httpapi.NewServer(sys)
		eng.RegisterMetrics(api.Registry())
		if dur != nil {
			api.SetReadinessCheck(dur.Healthy)
			api.SetDegradedCheck(dur.Degraded)
			api.SetDurabilityStats(func() interface{} { return dur.Stats() })
		}
		api.SetReady(true)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, api.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("serving /metrics on %s", *metricsAddr)
	}

	report, err := eng.Run(script)
	if err != nil {
		log.Fatal(err)
	}
	slo.Evaluate(report)

	report.WriteHuman(os.Stdout)
	if *reportPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *reportPath)
	}
	if *gate && !report.SLOPass {
		fmt.Fprintln(os.Stderr, "scenario: SLO gate FAILED")
		os.Exit(1)
	}
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "pphcr-scenario: "+msg)
	flag.Usage()
	os.Exit(2)
}
