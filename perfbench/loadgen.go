package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr"
	"pphcr/internal/client"
	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/httpapi"
	"pphcr/internal/trajectory"
)

// benchClient issues the workload's operations through the router, as
// independent listeners' apps would, and checks every response.
type benchClient struct {
	api     *client.API
	hc      *http.Client
	base    string
	drivers []*driver
	items   []*content.Item
	seed    int64
	clock   func() time.Time
	anchor  time.Time
	rec     *recorder
	nextReq atomic.Int64
	writes  atomic.Int64

	// trackMu serializes each driver's GPS posts, as a phone sends them:
	// the tracker rejects a fix older than the user's last one. It
	// guards driver.trackSeq.
	trackMu []sync.Mutex
	acked   ackLog
}

// reqIDTransport stamps the client's request ID on every request whose
// context carries one, so the router's span links to the client span.
type reqIDTransport struct{ next http.RoundTripper }

type reqIDKey struct{}

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(headerReqID, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(r)
}

func newBenchClient(base string, seed int64, lanes int, drivers []*driver, items []*content.Item,
	clock func() time.Time, anchor time.Time, rec *recorder) *benchClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = lanes
	hc := &http.Client{Transport: reqIDTransport{tr}}
	api := client.NewAPI(base, seed)
	api.SetHTTPClient(hc)
	return &benchClient{
		api: api, hc: hc, base: base, drivers: drivers, items: items, seed: seed, clock: clock, anchor: anchor, rec: rec,
		trackMu: make([]sync.Mutex, len(drivers)),
	}
}

func (c *benchClient) close() { c.hc.CloseIdleConnections() }

// reaction is a listener's feedback on an item it was played, by the
// behaviour model of internal/client's Listener.Play: a listener whose
// true affinity for the item reaches its skip threshold listens through,
// and likes it with probability LikeProbability·affinity; otherwise it
// skips, and on a strong mismatch (affinity under 0.05) dislikes it too
// with probability 0.15. u is a uniform draw in [0, 1).
func reaction(l *client.Listener, it *content.Item, u float64) string {
	aff := l.Affinity(it.Categories)
	switch {
	case aff >= l.SkipThreshold && u < l.LikeProbability*aff:
		return "like"
	case aff >= l.SkipThreshold:
		return "listen"
	case aff < 0.05 && u < 0.15:
		return "dislike"
	}
	return "skip"
}

// uniform is a seeded draw in [0, 1) for the n-th operation of its kind
// (a splitmix64 finalizer), so reactions do not depend on the order
// concurrent workers take operations in.
func uniform(seed int64, n int) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// do runs one operation and checks its output; a non-nil error is a
// failed operation.
func (c *benchClient) do(ctx context.Context, a arrival) error {
	d := c.drivers[a.driver]
	switch a.kind {
	case opPlan:
		pv, err := c.api.Plan(ctx, httpapi.PlanRequest{UserID: d.user, Fixes: d.partial})
		if err != nil {
			return err
		}
		if !pv.Proactive || len(pv.Items) == 0 {
			return fmt.Errorf("plan for %s: proactive=%v items=%d reason=%q", d.user, pv.Proactive, len(pv.Items), pv.Reason)
		}
	case opRecommend:
		// client.API.Recommendations sends no unix, so the server would
		// rank at the wall clock — years after the world's window, an
		// empty list. The benchmark sends the world clock itself.
		q := url.Values{"user": {d.user}, "k": {"10"}, "unix": {strconv.FormatInt(c.clock().Unix(), 10)}}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/recommendations?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("recommendations for %s: http %d", d.user, resp.StatusCode)
		}
		var recs []httpapi.RecommendationView
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("recommendations for %s: empty list", d.user)
		}
	case opFeedback:
		// The listener was played an item of the window, drawn by the
		// arrival's number, and reacts to it by taste.
		it := c.items[uint64(a.n)*2654435761%uint64(len(c.items))]
		b := httpapi.FeedbackBody{
			UserID: d.user,
			ItemID: it.ID,
			Kind:   reaction(d.listener, it, uniform(c.seed, a.n)),
			// A distinct second per write keeps the oracle's keys unique.
			Unix: c.anchor.Unix() + c.writes.Add(1),
		}
		if _, err := c.api.Feedback(ctx, b); err != nil {
			return err
		}
		c.acked.addFeedback(b)
	case opTrack:
		c.trackMu[a.driver].Lock()
		defer c.trackMu[a.driver].Unlock()
		d.trackSeq++
		// A slow creep on from the last fix, one second apart.
		b := httpapi.TrackBody{
			UserID: d.user,
			Lat:    d.lastFix.Point.Lat + float64(d.trackSeq)*1e-6,
			Lon:    d.lastFix.Point.Lon,
			Unix:   d.lastFix.Time.Unix() + int64(d.trackSeq),
		}
		if _, err := c.api.Track(ctx, b); err != nil {
			return err
		}
		c.acked.addTrack(b)
	}
	return nil
}

// opResult is one completed operation. Times are nanoseconds since the
// recorder epoch: intended is when the schedule said to send.
type opResult struct {
	kind                 opKind
	req                  int64
	user                 string
	intended, sent, done int64
	err                  error
}

func (r opResult) latency() time.Duration { return time.Duration(r.done - r.intended) }
func (r opResult) late() time.Duration    { return time.Duration(r.sent - r.intended) }

// run executes one operation, timed, under its own request ID.
func (c *benchClient) run(a arrival, intended int64) opResult {
	id := c.nextReq.Add(1)
	ctx := context.WithValue(context.Background(), reqIDKey{}, id)
	res := opResult{kind: a.kind, req: id, user: c.drivers[a.driver].user, intended: intended}
	res.sent = c.rec.now()
	res.err = c.do(ctx, a)
	res.done = c.rec.now()
	if c.rec.recording() {
		c.rec.add(span{name: spanOp, start: res.intended, end: res.done, req: id, user: res.user, route: opNames[a.kind]})
		c.rec.add(span{name: spanClient, start: res.sent, end: res.done, req: id, user: res.user, route: opNames[a.kind]})
	}
	return res
}

// lane returns which of the two client lanes carries an operation:
// reads and writes each get nproc connections, so a write parked on the
// standby's poll never holds a read behind it.
func lane(k opKind) int {
	if k.isWrite() {
		return 1
	}
	return 0
}

// openLoop sends the schedule open-loop: each operation is due at
// start+at and is timed from then, however late a connection frees up.
// Each lane has `slots` workers that take the lane's arrivals in order
// and sleep until each is due, so at most `slots` of its requests are
// in flight.
func (c *benchClient) openLoop(sched []arrival, slots int, start time.Time) []opResult {
	results := make([]opResult, len(sched))
	var perLane [2][]int
	for i, a := range sched {
		perLane[lane(a.kind)] = append(perLane[lane(a.kind)], i)
	}
	var wg sync.WaitGroup
	for _, idx := range perLane {
		var next atomic.Int64
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1) - 1)
					if n >= len(idx) {
						return
					}
					a := sched[idx[n]]
					due := start.Add(a.at)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					results[idx[n]] = c.run(a, int64(due.Sub(c.rec.epoch)))
				}
			}()
		}
	}
	wg.Wait()
	return results
}

// closedLoop replays each lane's operations back to back on `slots`
// clients per lane until dur has passed, and returns the completions.
func (c *benchClient) closedLoop(sched []arrival, slots int, dur time.Duration) []opResult {
	var perLane [2][]arrival
	for _, a := range sched {
		perLane[lane(a.kind)] = append(perLane[lane(a.kind)], a)
	}
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	for l := range perLane {
		ops := perLane[l]
		if len(ops) == 0 {
			continue
		}
		var next atomic.Int64
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []opResult
				for time.Now().Before(deadline) {
					a := ops[int(next.Add(1)-1)%len(ops)]
					mine = append(mine, c.run(a, c.rec.now()))
				}
				mu.Lock()
				out = append(out, mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return out
}

// ackLog is the multiset of acknowledged writes: a 2xx from the router
// certifies the write was applied on the leader and on the standby.
type ackLog struct {
	mu       sync.Mutex
	feedback map[string]int
	track    map[string]int
}

func feedbackKey(user, item string, kind feedback.Kind, unix int64) string {
	return user + "|" + item + "|" + kind.String() + "|" + strconv.FormatInt(unix, 10)
}

func trackKey(user string, fix trajectory.Fix) string {
	return fmt.Sprintf("%s|%.7f|%.7f|%d", user, fix.Point.Lat, fix.Point.Lon, fix.Time.Unix())
}

var feedbackKindByName = map[string]feedback.Kind{
	"listen": feedback.ImplicitListen, "skip": feedback.Skip,
	"like": feedback.Like, "dislike": feedback.Dislike,
}

func (l *ackLog) addFeedback(b httpapi.FeedbackBody) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.feedback == nil {
		l.feedback = make(map[string]int)
	}
	l.feedback[feedbackKey(b.UserID, b.ItemID, feedbackKindByName[b.Kind], b.Unix)]++
}

func (l *ackLog) addTrack(b httpapi.TrackBody) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.track == nil {
		l.track = make(map[string]int)
	}
	var fix trajectory.Fix
	fix.Point.Lat, fix.Point.Lon = b.Lat, b.Lon
	fix.Time = time.Unix(b.Unix, 0).UTC()
	l.track[trackKey(b.UserID, fix)]++
}

func (l *ackLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.feedback {
		n += v
	}
	for _, v := range l.track {
		n += v
	}
	return n
}

// minDrivers is the fewest commuters a run may plan for.
const minDrivers = 12

// qualifyingDrivers asks the deployment once, through the router, for
// each persona's plan and keeps the personas it plans for: a commute
// the gate declines (a predicted trip shorter than the minimum worth
// interrupting, say) is the paper's phase 1 working, not a failure, and
// such a persona is not a driver. The asking also warms each driver's
// plan, as the first morning request would.
func qualifyingDrivers(base string, personas []*driver) ([]*driver, error) {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	api := client.NewAPI(base, 1)
	api.SetHTTPClient(hc)
	var out []*driver
	for _, d := range personas {
		pv, err := api.Plan(context.Background(), httpapi.PlanRequest{UserID: d.user, Fixes: d.partial})
		if err != nil {
			return nil, fmt.Errorf("probing %s's plan: %w", d.user, err)
		}
		if pv.Proactive && len(pv.Items) > 0 {
			out = append(out, d)
		}
	}
	if len(out) < minDrivers {
		return nil, fmt.Errorf("only %d of %d personas get a proactive plan, need %d", len(out), len(personas), minDrivers)
	}
	return out, nil
}

// missingOn counts acknowledged writes absent from sys: every acked
// key must be present at least as many times as it was acked.
func (l *ackLog) missingOn(sys *pphcr.System) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	have := make(map[string]int)
	users := make(map[string]bool)
	for k := range l.feedback {
		users[k[:strings.IndexByte(k, '|')]] = true
	}
	for k := range l.track {
		users[k[:strings.IndexByte(k, '|')]] = true
	}
	for u := range users {
		for _, e := range sys.Feedback.ByUser(u) {
			have[feedbackKey(e.UserID, e.ItemID, e.Kind, e.At.Unix())]++
		}
		for _, f := range sys.Tracker.Trace(u) {
			have[trackKey(u, f)]++
		}
	}
	missing := 0
	for _, set := range []map[string]int{l.feedback, l.track} {
		for k, n := range set {
			if have[k] < n {
				missing += n - have[k]
			}
		}
	}
	return missing
}
