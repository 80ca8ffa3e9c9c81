package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/httpapi"
	"pphcr/internal/pipeline"
)

// Span names. Each is one layer boundary the benchmark wraps from the
// outside: the open-loop op (intended send → response), the client call
// (actual send → response), the router's handler, the leader's mux, the
// follower's /replication/wait (the ack wait), a pipeline stage call, an
// IngestPodcast call and an OpenDurability call.
const (
	spanOp       = "loadgen"
	spanClient   = "client"
	spanRouter   = "router"
	spanLeader   = "httpapi"
	spanRepl     = "replication"
	spanWait     = "ackwait"
	spanStage    = "pipeline"
	spanIngest   = "ingest"
	spanOpenDur  = "open_durability"
	headerReqID  = "X-Bench-Req"
	stageRequest = 0 // span.seq of a stage call made for a client request
	stageWarm    = 1 // … for a warmer batch
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. parent is filled when spans are linked into trees.
type span struct {
	id     int64
	name   string
	start  int64
	end    int64
	req    int64
	user   string
	route  string
	seq    uint64
	status int
	parent int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory. A nil recorder, or one whose on flag
// is clear, records nothing; wrap* return their handler unchanged when
// the recorder neither traces nor stalls.
type recorder struct {
	epoch time.Time
	// wrap installs the layer wrappers (traced runs); on gates recording
	// inside them so one run can measure with and without tracing.
	wrap bool
	on   atomic.Bool
	// stall is the attribution self-test's injected delay in the leader
	// mux wrapper, applied to /api/plan.
	stall time.Duration

	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(wrap bool, stall time.Duration) *recorder {
	return &recorder{epoch: time.Now(), wrap: wrap, stall: stall}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) recording() bool { return r != nil && r.on.Load() }

func (r *recorder) add(s span) {
	s.id = r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// span starts a span and returns its end function, which takes the
// span's WAL sequence (0 when none).
func (r *recorder) span(name string, req int64, user, route string) func(seq uint64) {
	if !r.recording() {
		return func(uint64) {}
	}
	start := r.now()
	return func(seq uint64) {
		r.add(span{name: name, start: start, end: r.now(), req: req, user: user, route: route, seq: seq})
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// serveTimed runs h and records one span around it.
func (r *recorder) serveTimed(h http.Handler, w http.ResponseWriter, req *http.Request, s span) {
	sw := &statusWriter{ResponseWriter: w}
	s.start = r.now()
	h.ServeHTTP(sw, req)
	s.end = r.now()
	s.status = sw.status
	if s.seq == 0 {
		s.seq, _ = strconv.ParseUint(w.Header().Get(httpapi.HeaderWalSeq), 10, 64)
	}
	r.add(s)
}

// wrapRouter spans the router's handler; the client's request ID
// header links the span to its client span.
func (r *recorder) wrapRouter(h http.Handler) http.Handler {
	if r == nil || !r.wrap {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording() {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseInt(req.Header.Get(headerReqID), 10, 64)
		r.serveTimed(h, w, req, span{name: spanRouter, req: id, route: req.URL.Path})
	})
}

// wrapLeader spans the leader's mux. The router forwards no request ID,
// so the span carries the user (from the query or the JSON body) and the
// route, which link it to the router span that contains it.
func (r *recorder) wrapLeader(h http.Handler) http.Handler {
	if r == nil || (!r.wrap && r.stall == 0) {
		return h
	}
	if r.stall > 0 {
		// The stall sits inside the span, as a slower leader would.
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/api/plan" {
				time.Sleep(r.stall)
			}
			inner.ServeHTTP(w, req)
		})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording() {
			h.ServeHTTP(w, req)
			return
		}
		if strings.HasPrefix(req.URL.Path, "/replication/") {
			r.serveTimed(h, w, req, span{name: spanRepl, route: req.URL.Path})
			return
		}
		user := req.URL.Query().Get("user")
		if user == "" && req.Body != nil {
			body, _ := io.ReadAll(req.Body)
			req.Body = io.NopCloser(bytes.NewReader(body))
			var probe struct {
				UserID string `json:"user_id"`
			}
			_ = json.Unmarshal(body, &probe)
			user = probe.UserID
		}
		r.serveTimed(h, w, req, span{name: spanLeader, user: user, route: req.URL.Path})
	})
}

// wrapFollower spans the follower's /replication/wait, the router's ack
// wait; the seq parameter links it to the write.
func (r *recorder) wrapFollower(h http.Handler) http.Handler {
	if r == nil || !r.wrap {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording() || req.URL.Path != "/replication/wait" {
			h.ServeHTTP(w, req)
			return
		}
		seq, _ := strconv.ParseUint(req.URL.Query().Get("seq"), 10, 64)
		r.serveTimed(h, w, req, span{name: spanWait, route: req.URL.Path, seq: seq})
	})
}

// Pipeline stage wrappers: one span per stage call, tagged with the
// task's user and whether it served a client request or the warmer.

func stageOwner(tasks []*pipeline.Task) (string, uint64) {
	user, kind := "", uint64(stageRequest)
	for _, t := range tasks {
		if t.Mode == pipeline.ModeWarm {
			kind = stageWarm
		}
		user = t.User
	}
	if len(tasks) != 1 {
		user = ""
	}
	return user, kind
}

func (r *recorder) timeStage(stage string, tasks []*pipeline.Task, fn func()) {
	if !r.recording() {
		fn()
		return
	}
	user, kind := stageOwner(tasks)
	start := r.now()
	fn()
	r.add(span{name: spanStage, start: start, end: r.now(), user: user, route: stage, seq: kind})
}

type timedPredict struct {
	inner pipeline.Predict
	r     *recorder
}

func (s timedPredict) Predict(b *pipeline.Batch, t *pipeline.Task) {
	s.r.timeStage("predict", []*pipeline.Task{t}, func() { s.inner.Predict(b, t) })
}

type timedGate struct {
	inner pipeline.Gate
	r     *recorder
}

func (s timedGate) Gate(b *pipeline.Batch, t *pipeline.Task) {
	s.r.timeStage("gate", []*pipeline.Task{t}, func() { s.inner.Gate(b, t) })
}

type timedCandidates struct {
	inner pipeline.Candidates
	r     *recorder
}

func (s timedCandidates) Gather(b *pipeline.Batch) {
	s.r.timeStage("candidates", b.Tasks, func() { s.inner.Gather(b) })
}

func (s timedCandidates) Release(b *pipeline.Batch) {
	s.r.timeStage("candidates", b.Tasks, func() { s.inner.Release(b) })
}

type timedRank struct {
	inner pipeline.Rank
	r     *recorder
}

func (s timedRank) Rank(b *pipeline.Batch, t *pipeline.Task) {
	s.r.timeStage("rank", []*pipeline.Task{t}, func() { s.inner.Rank(b, t) })
}

type timedAllocate struct {
	inner pipeline.Allocate
	r     *recorder
}

func (s timedAllocate) Allocate(b *pipeline.Batch, t *pipeline.Task) {
	s.r.timeStage("allocate", []*pipeline.Task{t}, func() { s.inner.Allocate(b, t) })
}

// wrapStages swaps every stage of p for a timed wrapper around it.
func wrapStages(p *pipeline.Pipeline, r *recorder) {
	if r == nil || !r.wrap {
		return
	}
	p.Predict = timedPredict{p.Predict, r}
	p.Gate = timedGate{p.Gate, r}
	p.Candidates = timedCandidates{p.Candidates, r}
	p.Rank = timedRank{p.Rank, r}
	p.Allocate = timedAllocate{p.Allocate, r}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once, and a child's part outside the parent is ignored).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}
