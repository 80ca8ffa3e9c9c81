package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/content"
	"pphcr/internal/httpapi"
	"pphcr/internal/replicate"
	"pphcr/internal/service"
	"pphcr/internal/synth"
)

// The deployment the benchmark builds is the documented replicated one:
// a leader started as `pphcr-server -wal-sync always -retain-wal
// -data-dir …`, a follower started as `pphcr-server -role follower
// -leader-url …`, and `pphcr-router -topology …` in front of both. Every
// knob below is one of those binaries' flag defaults; nothing else is
// set (checkDefaults enforces that).
const (
	serverCacheShards  = 32               // pphcr-server -cache-shards
	serverPlanTTL      = 10 * time.Minute // -plan-ttl
	serverANNRetrieve  = 256              // -ann-retrieve
	serverANNProbe     = 500              // -ann-probe-every
	serverWarmWorkers  = 4                // -warm-workers
	serverWarmBatch    = 16               // -warm-batch
	serverFbEvery      = 512              // -feedback-compact-every
	serverFbHorizon    = 30 * 24 * time.Hour
	serverCkInterval   = time.Minute // -checkpoint-interval
	serverTraceRing    = 64          // api.EnableTracing(64, -trace-threshold)
	serverTraceThresh  = 250 * time.Millisecond
	replicationPrefix  = "/replication"
	standbyCatchupWait = 2 * time.Minute
)

// serverConfig is the pphcr.Config pphcr-server builds from its flag
// defaults.
func serverConfig(w *synth.World, seed int64) pphcr.Config {
	return pphcr.Config{
		TrainingDocs:    w.Training,
		Vocabulary:      w.FlatVocab,
		Seed:            seed,
		PlanCacheShards: serverCacheShards,
		PlanTTL:         serverPlanTTL,
		UserShards:      pphcr.DefaultUserShards,
		ANNRetrieve:     serverANNRetrieve,
		ANNProbeEvery:   serverANNProbe,
	}
}

// cluster is one running deployment: leader, warm standby and router,
// each behind its own loopback HTTP listener.
type cluster struct {
	world   *synth.World
	cfg     pphcr.Config
	spec    worldSpec
	clock   func() time.Time // the world clock the leader's services run on
	baseDir string

	leader     *pphcr.System
	leaderDur  *pphcr.Durability
	leaderDir  string
	leaderSrv  *httptest.Server
	warmer     *service.Warmer
	compactor  *service.Compactor
	fbc        *service.FeedbackCompactor
	checkpoint *service.Checkpointer

	follower    *pphcr.System
	followerDir string
	standby     *replicate.Standby
	followerSrv *httptest.Server

	topo      *replicate.Topology
	router    *replicate.Router
	routerSrv *httptest.Server

	// stop ends the leader's background services; tailStop the standby's
	// tail loop; routerStop the router's health loop. bg waits for all.
	stop       chan struct{}
	tailStop   chan struct{}
	routerStop chan struct{}
	bg         sync.WaitGroup
	closeOnce  sync.Once

	feed []content.RawPodcast // held-back podcasts the broadcaster publishes live
}

// buildCluster generates the world and brings the deployment up to
// "ready": preload, checkpoint zero, prewarm, standby caught up, router
// answering /readyz. tr, when non-nil, wraps the layers in spans.
func buildCluster(spec worldSpec, seed int64, baseDir string, tr *recorder) (*cluster, error) {
	w, err := synth.GenerateWorld(spec.params(seed))
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	c := &cluster{
		world: w, spec: spec, baseDir: baseDir,
		cfg:         serverConfig(w, seed),
		stop:        make(chan struct{}),
		tailStop:    make(chan struct{}),
		routerStop:  make(chan struct{}),
		leaderDir:   filepath.Join(baseDir, "leader"),
		followerDir: filepath.Join(baseDir, "follower"),
	}
	anchor := spec.anchor(w)
	bootReal := time.Now()
	c.clock = func() time.Time { return anchor.Add(time.Since(bootReal)) }
	if err := c.startLeader(tr); err != nil {
		c.close()
		return nil, err
	}
	if err := c.startFollower(tr); err != nil {
		c.close()
		return nil, err
	}
	if err := c.startRouter(tr); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func newSystem(cfg pphcr.Config, tr *recorder) (*pphcr.System, error) {
	sys, err := pphcr.New(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Stages are swapped before first use, as the Pipeline contract
		// requires.
		wrapStages(sys.Pipeline(), tr)
	}
	return sys, nil
}

// loadDirectory installs the broadcast directory (ephemeral metadata,
// loaded on every node at boot).
func loadDirectory(sys *pphcr.System, w *synth.World) error {
	horizon := w.Params.StartDate.AddDate(0, 0, w.Params.Days+8)
	for _, svc := range w.Directory.Services() {
		if err := sys.Directory.AddService(svc); err != nil {
			return err
		}
		for _, p := range w.Directory.ProgramsBetween(svc.ID, w.Params.StartDate, horizon) {
			if err := sys.Directory.AddProgram(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// startLeader mirrors pphcr-server's leader boot: recovery-first
// durability, directory, synthetic preload, checkpoint zero, background
// services, prewarm, then the mux with the shipping source mounted.
func (c *cluster) startLeader(tr *recorder) error {
	sys, err := newSystem(c.cfg, tr)
	if err != nil {
		return err
	}
	c.leader = sys
	api := httpapi.NewServer(sys)
	api.SetReady(false)
	api.EnableTracing(serverTraceRing, serverTraceThresh)
	if err := os.MkdirAll(c.leaderDir, 0o755); err != nil {
		return err
	}
	dur, err := openDurability(sys, c.leaderDir, tr)
	if err != nil {
		return err
	}
	c.leaderDur = dur
	api.SetWALSeq(dur.WALSeq)
	api.SetDurabilityStats(func() interface{} { return dur.Stats() })
	api.SetReadinessCheck(dur.Healthy)
	api.SetDegradedCheck(dur.Degraded)
	if err := loadDirectory(sys, c.world); err != nil {
		return fmt.Errorf("leader directory: %w", err)
	}

	preload, feed := c.spec.splitCorpus(c.world)
	c.feed = feed
	for _, raw := range preload {
		if _, err := sys.IngestPodcast(raw); err != nil {
			return fmt.Errorf("preload ingest: %w", err)
		}
	}
	for _, p := range c.world.Personas {
		if err := sys.RegisterUser(p.Profile); err != nil {
			return fmt.Errorf("register user: %w", err)
		}
	}
	for _, p := range c.world.Personas {
		for d := 0; d < c.world.Params.Days; d++ {
			day := c.world.Params.StartDate.AddDate(0, 0, d)
			if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
				continue
			}
			for _, morning := range []bool{true, false} {
				trace, _, err := c.world.CommuteTrace(p, day, morning)
				if err != nil {
					return fmt.Errorf("commute trace: %w", err)
				}
				for _, fix := range trace {
					if err := sys.RecordFix(p.Profile.UserID, fix); err != nil {
						return fmt.Errorf("record fix: %w", err)
					}
				}
			}
		}
		if _, err := sys.CompactTracking(p.Profile.UserID); err != nil {
			return fmt.Errorf("compact %s: %w", p.Profile.UserID, err)
		}
	}
	if err := dur.Checkpoint(); err != nil {
		return fmt.Errorf("initial checkpoint: %w", err)
	}

	c.compactor, err = service.NewCompactor(sys)
	if err != nil {
		return err
	}
	c.goBG(func() { c.compactor.Run(c.stop) })
	c.fbc, err = service.NewFeedbackCompactor(sys)
	if err != nil {
		return err
	}
	c.fbc.EventsPerCompaction = serverFbEvery
	c.fbc.Horizon = serverFbHorizon
	c.fbc.Now = c.clock
	c.goBG(func() { c.fbc.Run(c.stop) })
	c.checkpoint, err = service.NewCheckpointer(dur)
	if err != nil {
		return err
	}
	c.checkpoint.Interval = serverCkInterval
	c.goBG(func() { c.checkpoint.Run(c.stop) })
	c.warmer, err = service.NewWarmer(sys, warmerConfig(c.clock))
	if err != nil {
		return err
	}
	c.warmer.Prewarm(sys, c.clock())
	c.goBG(func() { c.warmer.Run(c.stop) })
	api.SetWarmerStats(func() interface{} { return c.warmer.Stats() })
	api.SetReady(true)

	mux := apiMux(api)
	replicate.NewSource(c.leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, replicationPrefix)
	c.leaderSrv = httptest.NewServer(tr.wrapLeader(mux))
	return nil
}

// apiMux mounts the API server's routes as pphcr-server does.
func apiMux(api *httpapi.Server) *http.ServeMux {
	mux := http.NewServeMux()
	for _, p := range []string{"/api/", "/healthz", "/readyz", "/metrics", "/debug/traces", "/stats"} {
		mux.Handle(p, api.Handler())
	}
	return mux
}

func openDurability(sys *pphcr.System, dir string, tr *recorder) (*pphcr.Durability, error) {
	end := tr.span(spanOpenDur, 0, "", "")
	dur, err := pphcr.OpenDurability(sys, leaderDurability(dir))
	end(0)
	return dur, err
}

// startFollower mirrors `pphcr-server -role follower`: an empty System
// with the broadcast directory, tailing the leader through a Standby at
// its default poll interval, serving the ack-barrier wait.
func (c *cluster) startFollower(tr *recorder) error {
	sys, err := newSystem(c.cfg, nil)
	if err != nil {
		return err
	}
	c.follower = sys
	api := httpapi.NewServer(sys)
	api.SetReady(false)
	api.EnableTracing(serverTraceRing, serverTraceThresh)
	if err := loadDirectory(sys, c.world); err != nil {
		return fmt.Errorf("follower directory: %w", err)
	}
	standby, err := replicate.NewStandby(sys, c.followerDir, c.leaderSrv.URL, replicationPrefix)
	if err != nil {
		return err
	}
	c.standby = standby
	c.goBG(func() { standby.Run(c.tailStop) })
	api.SetRole(httpapi.RoleFollower)
	api.SetReplicationLag(standby.LagSeconds)
	api.SetReadinessCheck(standby.Err)
	api.SetReady(true)

	mux := apiMux(api)
	mux.HandleFunc("GET /replication/wait", c.handleWait)
	c.followerSrv = httptest.NewServer(tr.wrapFollower(mux))

	// Catch-up: the standby replays the leader's whole log (preload
	// included) before the deployment counts as ready.
	target := c.leaderDur.WALSeq()
	deadline := time.Now().Add(standbyCatchupWait)
	for standby.AppliedSeq() < target {
		if err := standby.Err(); err != nil {
			return fmt.Errorf("standby wedged during catch-up: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby at %d of %d after %v", standby.AppliedSeq(), target, standbyCatchupWait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// handleWait is pphcr-server's follower /replication/wait: block until
// the standby has applied seq, bounded by timeout_ms (default 5s).
func (c *cluster) handleWait(w http.ResponseWriter, r *http.Request) {
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
	if err := c.standby.WaitApplied(ctx, seq); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusGatewayTimeout)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"applied":%d}`+"\n", c.standby.AppliedSeq())
}

// startRouter mirrors pphcr-router over a one-partition topology and
// waits for its /readyz.
func (c *cluster) startRouter(tr *recorder) error {
	c.topo = &replicate.Topology{Version: 1, Nodes: []replicate.Node{
		{ID: "a", URL: c.leaderSrv.URL, Standby: c.followerSrv.URL},
	}}
	if err := c.topo.Validate(); err != nil {
		return err
	}
	c.router = replicate.NewRouter(c.topo)
	c.goBG(func() { c.router.Run(c.routerStop) })
	mux := http.NewServeMux()
	mux.Handle("/", c.router.Handler())
	c.routerSrv = httptest.NewServer(tr.wrapRouter(mux))
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.routerSrv.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("router not ready after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) goBG(fn func()) {
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		fn()
	}()
}

// crashLeader kills the leader the way SIGKILL would: the WAL is
// abandoned unflushed and the listener vanishes. The leader's services
// stop with it. The router and the standby's tail stop first, so the
// router does not start a failover and the standby's state holds still
// for the oracle.
func (c *cluster) crashLeader() {
	c.routerSrv.Close()
	c.routerSrv = nil
	close(c.routerStop)
	c.routerStop = nil
	close(c.tailStop)
	c.tailStop = nil
	c.leaderDur.Crash()
	c.leaderSrv.CloseClientConnections()
	c.leaderSrv.Close()
	c.leaderSrv = nil
	close(c.stop)
	c.stop = nil
}

// close stops every goroutine and listener the cluster started, waits
// for them, and removes its data directories.
func (c *cluster) close() {
	c.closeOnce.Do(func() {
		if c.routerSrv != nil {
			c.routerSrv.Close()
		}
		for _, ch := range []chan struct{}{c.routerStop, c.stop, c.tailStop} {
			if ch != nil {
				close(ch)
			}
		}
		if c.followerSrv != nil {
			c.followerSrv.Close()
		}
		if c.leaderSrv != nil {
			c.leaderSrv.Close()
		}
		c.bg.Wait()
		if c.leaderDur != nil && c.leaderSrv != nil {
			c.leaderDur.Crash()
		}
		os.RemoveAll(c.baseDir)
	})
}
