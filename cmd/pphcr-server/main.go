// Command pphcr-server runs the PPHCR content server (Fig 3): the public
// REST API consumed by client apps and the web control dashboard used in
// the demonstration (Figs 5–6), loaded with a synthetic world (stations,
// schedules, podcast corpus, personas).
//
// Usage:
//
//	pphcr-server -addr :8080 -seed 2017 -days 14 -users 20
//
// Then, for example:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	curl localhost:8080/api/services
//	curl 'localhost:8080/api/recommendations?user=user-000&k=5'
//	open 'localhost:8080/dashboard/trajectory?user=user-000'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pphcr"
	"pphcr/internal/dashboard"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/obs"
	"pphcr/internal/precompute"
	"pphcr/internal/replicate"
	"pphcr/internal/service"
	"pphcr/internal/synth"
)

// fatal logs the error at ERROR and exits; the slog equivalent of
// log.Fatal for boot-time failures.
func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (use debug, info, warn or error)", s)
	}
	return lvl, nil
}

// logStatusRecorder captures the status and byte count a handler wrote,
// for the access log.
type logStatusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *logStatusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *logStatusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// accessLog wraps the whole mux: it installs the request-user slot on
// the context (handlers fill it via obs.NoteRequestUser) and logs
// method, path, status, bytes and duration per request. Probe and
// scrape endpoints log at DEBUG so a 15s scrape interval doesn't bury
// the real traffic.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithRequestUser(r.Context())
		rec := &logStatusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		lvl := slog.LevelInfo
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			lvl = slog.LevelDebug
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur", time.Since(start).Round(time.Microsecond),
		}
		if u := obs.RequestUser(ctx); u != "" {
			attrs = append(attrs, "user", u)
		}
		logger.Log(r.Context(), lvl, "request", attrs...)
	})
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", 2017, "world seed")
		days        = flag.Int("days", 14, "days of synthetic content and schedules")
		users       = flag.Int("users", 20, "synthetic personas")
		track       = flag.Bool("track", true, "preload persona commute traces and compact them")
		warmWorkers = flag.Int("warm-workers", 4, "plan-warming worker pool size (0 disables the warmer)")
		warmBatch   = flag.Int("warm-batch", 16, "warm jobs coalesced into one pipeline batch per WarmBatch call")
		planTTL     = flag.Duration("plan-ttl", 10*time.Minute, "warm plan time-to-live")
		cacheShards = flag.Int("cache-shards", 32, "plan cache shard count")
		userShards  = flag.Int("user-shards", pphcr.DefaultUserShards, "per-user state shard count")
		fbEvery     = flag.Int("feedback-compact-every", 512, "feedback events per user between compactions (0 disables)")
		fbHorizon   = flag.Duration("feedback-horizon", 30*24*time.Hour, "feedback history kept live; older events fold into the baseline")
		dataDir     = flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
		ckInterval  = flag.Duration("checkpoint-interval", time.Minute, "time between background checkpoints (0 disables; shutdown still checkpoints)")
		walSync     = flag.String("wal-sync", "interval", "WAL fsync policy: always, interval or none")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		annOn       = flag.Bool("ann", false, "enable embedding-based candidate retrieval (HNSW index maintained on ingest)")
		annRetrieve = flag.Int("ann-retrieve", 256, "ANN candidates fetched per query before exact re-ranking")
		annEf       = flag.Int("ann-ef", 0, "ANN search beam width (0 = 2x ann-retrieve)")
		annProbe    = flag.Int("ann-probe-every", 500, "sample every Nth ANN retrieval with a brute-force recall probe (0 disables)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceThresh = flag.Duration("trace-threshold", 250*time.Millisecond, "keep per-request stage traces slower than this in /debug/traces (0 disables tracing)")
		role        = flag.String("role", "leader", "replication role: leader or follower")
		leaderURL   = flag.String("leader-url", "", "follower: base URL of the leader whose WAL this node tails")
		nodeID      = flag.String("node-id", "", "this node's id in the topology (scopes the preload to owned users)")
		topoPath    = flag.String("topology", "", "topology file; with -node-id the preload registers only owned users")
		retainWAL   = flag.Bool("retain-wal", false, "keep WAL segments past checkpoints (required on replicated leaders: followers bootstrap and rebalances replay from the full log)")
	)
	flag.Parse()

	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fatal("flags", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	isFollower := false
	switch *role {
	case "leader":
	case "follower":
		isFollower = true
		if *leaderURL == "" || *dataDir == "" {
			fatal("flags", fmt.Errorf("-role follower requires -leader-url and -data-dir"))
		}
	default:
		fatal("flags", fmt.Errorf("bad -role %q (use leader or follower)", *role))
	}
	var ring *replicate.Ring
	if *topoPath != "" {
		topo, err := replicate.LoadTopology(*topoPath)
		if err != nil {
			fatal("topology", err)
		}
		ring = replicate.NewRing(topo)
	}

	slog.Info("generating synthetic world", "seed", *seed, "days", *days, "users", *users)
	w, err := synth.GenerateWorld(synth.Params{Seed: *seed, Days: *days, Users: *users})
	if err != nil {
		fatal("generate world", err)
	}
	sys, err := pphcr.New(pphcr.Config{
		TrainingDocs:    w.Training,
		Vocabulary:      w.FlatVocab,
		Seed:            *seed,
		PlanCacheShards: *cacheShards,
		PlanTTL:         *planTTL,
		UserShards:      *userShards,
		ANNCandidates:   *annOn,
		ANNRetrieve:     *annRetrieve,
		ANNEf:           *annEf,
		ANNProbeEvery:   *annProbe,
	})
	if err != nil {
		fatal("system init", err)
	}
	if *annOn {
		slog.Info("ann candidate retrieval enabled",
			"retrieve", *annRetrieve, "ef", *annEf, "probe_every", *annProbe)
	}

	// The API server exists before recovery so the readiness boot gate is
	// honest: closed until recovered state (or the synthetic preload) is
	// in place, even if a deployment opens the listener earlier.
	api := httpapi.NewServer(sys)
	api.SetReady(false)
	if *traceThresh > 0 {
		api.EnableTracing(64, *traceThresh)
	}

	// Recovery runs before anything mutates the fresh System and before
	// the listener opens: restore the newest valid checkpoint, replay
	// the WAL tail, then attach the log so every subsequent mutation is
	// durable.
	policy, err := durable.ParseSyncPolicy(*walSync)
	if err != nil {
		fatal("durability", err)
	}
	// A follower opens no WAL of its own: its directory is a mirror of
	// the leader's segments, appended by the tailer and replayed through
	// the same recovery entry points. Promotion opens a live WAL over it.
	var dur *pphcr.Durability
	if *dataDir != "" && !isFollower {
		// A directory with WAL segments but no checkpoint is a boot that
		// crashed before its first checkpoint — i.e. mid-preload. Its
		// partial log must not masquerade as recoverable state (the
		// restart would skip the rest of the preload and serve a
		// half-loaded world), so reset it and preload from scratch.
		if ok, err := durable.Initialized(*dataDir); err == nil && !ok {
			if err := durable.RemoveSegments(*dataDir); err != nil {
				fatal("durability", err)
			}
		} else if err != nil {
			fatal("durability", err)
		}
		start := time.Now()
		dur, err = pphcr.OpenDurability(sys, pphcr.DurabilityOptions{
			Dir: *dataDir, Sync: policy, RetainSegments: *retainWAL,
		})
		if err != nil {
			fatal("durability", err)
		}
		api.SetWALSeq(dur.WALSeq)
		if dur.Recovered() {
			slog.Info("recovered",
				"users", sys.Profiles.Len(), "items", sys.Repo.Len(), "dir", *dataDir,
				"wal_events", dur.ReplayedEvents(), "dur", time.Since(start).Round(time.Millisecond))
		} else {
			slog.Info("durability enabled", "dir", *dataDir, "wal_sync", policy)
		}
		api.SetDurabilityStats(func() interface{} { return dur.Stats() })
		// A sticky WAL error (wedge or terminal write failure) must eject
		// the node from rotation: acknowledged writes are no longer durable.
		api.SetReadinessCheck(dur.Healthy)
		// Injected-slow-fsync mode is degradation, not death: the node
		// keeps serving (200) but /readyz and pphcr_degraded flag it.
		api.SetDegradedCheck(dur.Degraded)
		reg := api.Registry()
		reg.RegisterHistogram("pphcr_wal_append_duration_seconds",
			"WAL append latency, including the group-commit ticket wait under sync=always.",
			nil, dur.WALAppendHistogram())
		reg.RegisterHistogram("pphcr_wal_fsync_duration_seconds",
			"WAL flush+fsync latency.", nil, dur.WALFsyncHistogram())
		reg.RegisterHistogram("pphcr_checkpoint_pause_seconds",
			"Checkpoint write-pause (commit-barrier quiesce hold).", nil, dur.PauseHistogram())
	}

	// The broadcast directory is ephemeral metadata (regenerated each
	// boot, never snapshotted) and is loaded either way.
	horizon := w.Params.StartDate.AddDate(0, 0, w.Params.Days+8)
	for _, svc := range w.Directory.Services() {
		if err := sys.Directory.AddService(svc); err != nil {
			fatal("directory", err)
		}
		for _, p := range w.Directory.ProgramsBetween(svc.ID, w.Params.StartDate, horizon) {
			if err := sys.Directory.AddProgram(p); err != nil {
				fatal("directory", err)
			}
		}
	}

	// The synthetic preload only populates a fresh deployment; a
	// recovered one already holds this state (plus everything that
	// happened since) and re-ingesting would duplicate it. A follower
	// boots empty on purpose: the leader's WAL begins with the leader's
	// own preload, so tailing from sequence 1 reconstructs everything.
	if !isFollower && (dur == nil || !dur.Recovered()) {
		slog.Info("ingesting podcasts through the ASR+Bayes pipeline", "count", len(w.Corpus))
		start := time.Now()
		for _, raw := range w.Corpus {
			if _, err := sys.IngestPodcast(raw); err != nil {
				fatal("ingest", err)
			}
		}
		slog.Info("ingested", "dur", time.Since(start).Round(time.Millisecond))
		// Under a topology this node registers only the users it owns;
		// the catalog above is identical on every node (same seed).
		personas := ownedPersonas(w.Personas, ring, *nodeID)
		if ring != nil {
			slog.Info("topology-scoped preload", "node", *nodeID,
				"owned", len(personas), "total", len(w.Personas))
		}
		for _, p := range personas {
			if err := sys.RegisterUser(p.Profile); err != nil {
				fatal("register user", err)
			}
		}
		if *track {
			slog.Info("preloading commute traces", "personas", len(personas))
			for _, p := range personas {
				for d := 0; d < w.Params.Days; d++ {
					day := w.Params.StartDate.AddDate(0, 0, d)
					if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
						continue
					}
					for _, morning := range []bool{true, false} {
						trace, _, err := w.CommuteTrace(p, day, morning)
						if err != nil {
							fatal("commute trace", err)
						}
						for _, fix := range trace {
							if err := sys.RecordFix(p.Profile.UserID, fix); err != nil {
								fatal("record fix", err)
							}
						}
					}
				}
				if _, err := sys.CompactTracking(p.Profile.UserID); err != nil {
					slog.Warn("compact failed", "user", p.Profile.UserID, "err", err)
				}
			}
		}
		if dur != nil {
			// Fold the preload into checkpoint zero so the next boot
			// restores it instead of replaying the whole WAL.
			if err := dur.Checkpoint(); err != nil {
				fatal("initial checkpoint", err)
			}
			slog.Info("initial checkpoint written", "dir", *dataDir)
		}
	}

	// The synthetic world lives in the past; anchor the warmer's and the
	// feedback compactor's clock to it so they target instants that
	// actually have candidates.
	worldEnd := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	bootReal := time.Now()
	worldClock := func() time.Time { return worldEnd.Add(time.Since(bootReal)) }

	// A leader runs the compactors and the checkpointer from boot. A
	// follower runs none: every mutation must come off the leader's WAL,
	// or the replica forks. Promotion starts them.
	stop := make(chan struct{})
	leaderServices := func(dur *pphcr.Durability) error {
		return startLeaderServices(sys, dur, stop, *ckInterval, *fbEvery, *fbHorizon, worldClock)
	}
	if !isFollower {
		if err := leaderServices(dur); err != nil {
			fatal("background services", err)
		}
	}

	var warmer *service.Warmer
	if *warmWorkers > 0 && !isFollower {
		warmer, err = service.NewWarmer(sys, precompute.Config{
			Workers:   *warmWorkers,
			BatchSize: *warmBatch,
			Now:       worldClock,
		})
		if err != nil {
			fatal("warmer", err)
		}
		slog.Info("prewarming plans",
			"users", len(sys.MobilityUsers()), "workers", *warmWorkers,
			"ttl", *planTTL, "shards", *cacheShards)
		start := time.Now()
		warmed := warmer.Prewarm(sys, worldEnd)
		slog.Info("prewarmed", "plans", warmed,
			"dur", time.Since(start).Round(time.Millisecond), "cache_entries", sys.PlanCache.Len())
		go warmer.Run(stop)
		api.SetWarmerStats(func() interface{} { return warmer.Stats() })
	}

	// A follower tails its leader and serves the ack-barrier wait plus
	// the promote endpoint; a leader with a data directory serves its
	// WAL to followers (mounted below).
	var follower *replicate.Follower
	if isFollower {
		standby, err := replicate.NewStandby(sys, *dataDir, *leaderURL, "/replication")
		if err != nil {
			fatal("standby", err)
		}
		follower = replicate.StartFollower(standby, api, policy, func(dur *pphcr.Durability) {
			if err := leaderServices(dur); err != nil {
				slog.Error("post-promotion services", "err", err)
			}
		})
		slog.Info("tailing leader WAL", "leader", *leaderURL, "dir", *dataDir)
	}

	// State is loaded (recovered or preloaded) and the cache is warm:
	// open the readiness gate before the listener starts. A follower is
	// ready for (stale-tolerant) reads while it catches up; its role on
	// /readyz tells routers and operators what they are talking to.
	api.SetReady(true)

	mux := http.NewServeMux()
	mux.Handle("/api/", api.Handler())
	mux.Handle("/healthz", api.Handler())
	mux.Handle("/readyz", api.Handler())
	mux.Handle("/metrics", api.Handler())
	mux.Handle("/debug/traces", api.Handler())
	mux.Handle("/stats", api.Handler())
	mux.Handle("/dashboard/", dashboard.NewServer(sys).Handler())
	if follower != nil {
		follower.Mount(mux)
	} else if dur != nil {
		mountLeaderReplication(mux, sys, dur, *dataDir)
	}
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		slog.Info("pprof mounted", "path", "/debug/pprof/")
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "PPHCR content server — see /api/services, /api/recommendations, /api/plan, /stats, /metrics, /dashboard/trajectory")
	})
	worldNow := worldEnd.Unix()
	slog.Info("PPHCR server listening", "addr", *addr, "users", firstN(sys.Profiles.UserIDs(), 3))
	// A follower boots with zero users (its state arrives over the WAL),
	// so there may be no example user to print.
	if ids := firstN(sys.Profiles.UserIDs(), 1); len(ids) > 0 {
		slog.Info("the synthetic world lives in the past — pass its clock to time-scoped endpoints",
			"world_unix", worldNow,
			"example", fmt.Sprintf("curl 'localhost%s/api/recommendations?user=%s&k=5&unix=%d'",
				*addr, ids[0], worldNow))
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and stop
	// the background workers.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	srv := &http.Server{Addr: *addr, Handler: accessLog(logger, mux)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		close(stop)
		finalCheckpoint(dur)
		fatal("serve", err)
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	close(stop)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("shutdown", "err", err)
	}
	// The final checkpoint runs after the listener drained, so every
	// acknowledged mutation is in the snapshot and the next boot
	// replays nothing.
	finalCheckpoint(dur)
	if follower != nil {
		follower.Stop()
		finalCheckpoint(follower.Durability())
	}
	slog.Info("bye")
}

// startLeaderServices runs a leader's background writers until stop
// closes: the tracking and feedback compactors fold live /api/track and
// /api/feedback history, and the checkpointer (when dur is set) bounds
// crash recovery to one interval of WAL replay.
func startLeaderServices(sys *pphcr.System, dur *pphcr.Durability, stop <-chan struct{},
	ckInterval time.Duration, fbEvery int, fbHorizon time.Duration, clock func() time.Time) error {
	compactor, err := service.NewCompactor(sys)
	if err != nil {
		return fmt.Errorf("compactor: %w", err)
	}
	go compactor.Run(stop)
	if fbEvery > 0 {
		fbc, err := service.NewFeedbackCompactor(sys)
		if err != nil {
			return fmt.Errorf("feedback compactor: %w", err)
		}
		fbc.EventsPerCompaction = fbEvery
		fbc.Horizon = fbHorizon
		fbc.Now = clock
		go fbc.Run(stop)
	}
	if dur != nil {
		ck, err := service.NewCheckpointer(dur)
		if err != nil {
			return fmt.Errorf("checkpointer: %w", err)
		}
		ck.Interval = ckInterval
		go ck.Run(stop)
	}
	return nil
}

// finalCheckpoint flushes the WAL and writes the shutdown snapshot.
func finalCheckpoint(dur *pphcr.Durability) {
	if dur == nil {
		return
	}
	start := time.Now()
	if err := dur.Close(); err != nil {
		slog.Error("final checkpoint", "err", err)
		return
	}
	slog.Info("final checkpoint written", "dur", time.Since(start).Round(time.Millisecond))
}

func firstN(xs []string, n int) []string {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
