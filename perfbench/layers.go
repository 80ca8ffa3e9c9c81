package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
	"pphcr/internal/precompute"
	"pphcr/internal/replicate"
)

// counters is one reading of every counter the layers publish, taken
// at a phase boundary; layer metrics are differences of two readings.
type counters struct {
	at       time.Time
	cpu      time.Duration
	stages   [pipeline.NumStages]obs.Snapshot
	cache    plancache.Stats
	warm     precompute.Stats
	locks    pphcr.LockStats
	dur      pphcr.DurabilityStats
	append   obs.Snapshot
	fsync    obs.Snapshot
	pause    obs.Snapshot
	standby  replicate.StandbyStats
	feedback feedback.Stats
	retries  int64
	gcCycles uint64
	gcPause  float64 // seconds
	allocs   uint64  // bytes
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// readRuntime returns GC cycles, allocated bytes and total GC pause
// (estimated from the pause histogram's bucket midpoints).
func readRuntime() (cycles, allocs uint64, pause float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || hi > 1e9 { // open-ended buckets: take the finite edge
				lo, hi = max(lo, 0), min(hi, lo*2+1e-9)
			}
			pause += float64(n) * (lo + hi) / 2
		}
	}
	return cycles, allocs, pause
}

// liveHeapMB forces a GC and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func readCounters(c *cluster, bc *benchClient) counters {
	var k counters
	k.at = time.Now()
	k.cpu = processCPU()
	for i := range k.stages {
		k.stages[i] = c.leader.Pipeline().StageHistogram(i).Snapshot()
	}
	k.cache = c.leader.PlanCache.Stats()
	k.warm = c.warmer.Stats()
	k.locks = c.leader.LockStats()
	k.dur = c.leaderDur.Stats()
	k.append = c.leaderDur.WALAppendHistogram().Snapshot()
	k.fsync = c.leaderDur.WALFsyncHistogram().Snapshot()
	k.pause = c.leaderDur.PauseHistogram().Snapshot()
	k.standby = c.standby.Stats()
	k.feedback = c.leader.Feedback.Stats()
	k.retries = bc.api.Retries()
	k.gcCycles, k.allocs, k.gcPause = readRuntime()
	return k
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters turns two readings into the counter-based per-layer
// metrics; ops is the number of client operations completed between
// them.
func layerCounters(a, b counters, ops int, m metricSet) {
	secs := b.at.Sub(a.at).Seconds()
	for i, name := range pipeline.StageNames {
		d := b.stages[i].Delta(a.stages[i])
		m.set("pipeline."+name+".calls", "count", float64(d.Count))
		m.set("pipeline."+name+".us_per_op", "us", ratio(d.MeanNs(), 1e3))
	}

	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	m.set("plancache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("plancache.epoch_invalidations", "count", float64(b.cache.EpochInvalidations-a.cache.EpochInvalidations))
	m.set("plancache.user_invalidations", "count", float64(b.cache.UserInvalidations-a.cache.UserInvalidations))
	m.set("plancache.rewarm_ms", "ms", ratio(b.cache.TotalRewarmMillis-a.cache.TotalRewarmMillis,
		float64(b.cache.Rewarms-a.cache.Rewarms)))

	warmed := float64(b.warm.PlansWarmed - a.warm.PlansWarmed)
	m.set("precompute.plans_warmed", "count", warmed)
	m.set("precompute.jobs_dropped", "count", float64(b.warm.JobsDropped-a.warm.JobsDropped))
	m.set("precompute.warmed_per_plan_served", "ratio", ratio(warmed, hits+misses))

	m.set("pphcr.barrier_contended", "count", float64(b.locks.Barrier.Contended-a.locks.Barrier.Contended))
	m.set("pphcr.shard_contended", "count", float64(b.locks.Contended-a.locks.Contended))

	appends := float64(b.dur.WAL.Appended - a.dur.WAL.Appended)
	app := b.append.Delta(a.append)
	fs := b.fsync.Delta(a.fsync)
	m.set("durable.append_p50_us", "us", float64(app.Quantile(0.5))/1e3)
	m.set("durable.append_p99_us", "us", float64(app.Quantile(0.99))/1e3)
	m.set("durable.fsync_p50_us", "us", float64(fs.Quantile(0.5))/1e3)
	m.set("durable.fsync_p99_us", "us", float64(fs.Quantile(0.99))/1e3)
	m.set("durable.fsyncs_per_write", "ratio", ratio(float64(b.dur.WAL.Synced-a.dur.WAL.Synced), appends))
	m.set("durable.mean_commit_batch", "records", ratio(float64(b.dur.WAL.GroupCommitRecords-a.dur.WAL.GroupCommitRecords),
		float64(b.dur.WAL.GroupCommits-a.dur.WAL.GroupCommits)))
	m.set("durable.bytes_per_write", "bytes", ratio(float64(b.dur.WAL.Bytes-a.dur.WAL.Bytes), appends))
	m.set("durable.checkpoint_pause_ms", "ms", float64(b.pause.Delta(a.pause).SumNs)/1e6)

	polls := float64(b.standby.Polls - a.standby.Polls)
	m.set("standby.polls_per_s", "1/s", ratio(polls, secs))
	m.set("standby.shipped_bytes_per_write", "bytes", ratio(float64(b.standby.ShippedBytes-a.standby.ShippedBytes), appends))

	m.set("feedback.appends", "count", float64(b.feedback.Appends-a.feedback.Appends))
	m.set("feedback.compactions", "count", float64(b.feedback.Compactions-a.feedback.Compactions))
	m.set("client.retries", "count", float64(b.retries-a.retries))

	m.set("runtime.gc_cycles", "count", float64(b.gcCycles-a.gcCycles))
	m.set("runtime.gc_pause_ms", "ms", (b.gcPause-a.gcPause)*1e3)
	m.set("runtime.alloc_kb_per_op", "KiB", ratio(float64(b.allocs-a.allocs)/1024, float64(ops)))
}
