package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pphcr/internal/client"
	"pphcr/internal/content"
)

func TestNearestRank(t *testing.T) {
	// The nearest rank is the smallest k with at least q·n of n sorted
	// values at or below index k.
	for n := 1; n <= 300; n++ {
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			k := nearestRank(n, q)
			if k < 0 || k >= n {
				t.Fatalf("n=%d q=%g: rank %d out of range", n, q, k)
			}
			if float64(k+1) < q*float64(n) || (k > 0 && float64(k) >= q*float64(n)) {
				t.Fatalf("n=%d q=%g: rank %d is not the nearest rank", n, q, k)
			}
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Fatalf("median of 1..5 = %g, want 3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Fatal("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of an empty slice should be NaN")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {200, 0.95, 10}, {199, 0.95, 9}, {10, 0.5, 5}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	for _, w := range workloads {
		rates, err := w.rates()
		if err != nil {
			t.Fatal(err)
		}
		a := schedule(rates, 7, 20, 15*time.Second)
		b := schedule(rates, 7, 20, 15*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed gave different schedules", w.name)
		}
		if c := schedule(rates, 8, 20, 15*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds gave the same schedule", w.name)
		}
		var count [numOpKinds]int
		for i, x := range a {
			count[x.kind]++
			if i > 0 && x.at < a[i-1].at {
				t.Fatalf("%s: schedule not in time order at %d", w.name, i)
			}
			if x.at < 0 || x.at >= 15*time.Second || x.driver < 0 || x.driver >= 20 {
				t.Fatalf("%s: arrival out of range: %+v", w.name, x)
			}
		}
		for k, rate := range rates {
			want := rate * 15
			if math.Abs(float64(count[k])-want) > 5*math.Sqrt(want)+1 {
				t.Errorf("%s: %d %s arrivals, want about %.0f", w.name, count[k], opNames[k], want)
			}
		}
	}
}

func TestRatesKeepTheScenarioRatios(t *testing.T) {
	for _, w := range workloads {
		mix, err := w.mix()
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.rates()
		if err != nil {
			t.Fatal(err)
		}
		if min(r[opPlan], r[opRecommend]) != readFloor {
			t.Errorf("%s: the rarer read kind runs at %g/s, want %g", w.name, min(r[opPlan], r[opRecommend]), readFloor)
		}
		if mix[opPlan] > 0 && mix[opRecommend] > 0 && math.Abs(r[opPlan]/r[opRecommend]-mix[opPlan]/mix[opRecommend]) > 1e-9 {
			t.Errorf("%s: plan:recommendation %g, scenario phase %g", w.name, r[opPlan]/r[opRecommend], mix[opPlan]/mix[opRecommend])
		}
		if math.Abs(r[opFeedback]+r[opTrack]-writeRate) > 1e-9 {
			t.Errorf("%s: writes at %g/s, want %g", w.name, r[opFeedback]+r[opTrack], writeRate)
		}
		if math.Abs(r[opFeedback]*mix[opTrack]-r[opTrack]*mix[opFeedback]) > 1e-9 {
			t.Errorf("%s: feedback:fix %g:%g, scenario phase %g:%g", w.name, r[opFeedback], r[opTrack], mix[opFeedback], mix[opTrack])
		}
	}
}

func TestReactionFollowsTaste(t *testing.T) {
	l := client.NewListener("u", map[string]float64{"news": 1}, 1)
	liked := &content.Item{Categories: map[string]float64{"news": 1}}
	disliked := &content.Item{Categories: map[string]float64{"sport": 1}}
	var kinds [2]map[string]int
	for i, it := range []*content.Item{liked, disliked} {
		kinds[i] = map[string]int{}
		for n := 0; n < 2000; n++ {
			kinds[i][reaction(l, it, uniform(3, n))]++
		}
	}
	if kinds[0]["skip"]+kinds[0]["dislike"] != 0 || kinds[0]["like"] < 700 || kinds[0]["like"] > 900 {
		t.Errorf("reactions to a liked item: %v, want listens and about 40%% likes", kinds[0])
	}
	if kinds[1]["listen"]+kinds[1]["like"] != 0 || kinds[1]["dislike"] < 200 || kinds[1]["dislike"] > 400 {
		t.Errorf("reactions to a mismatched item: %v, want skips and about 15%% dislikes", kinds[1])
	}
}

func TestScheduleIsNotPeriodic(t *testing.T) {
	// Poisson gaps: their spread is about their mean, where a periodic
	// schedule's would be zero and phase-lock writers to the standby poll.
	rates, err := workloads[2].rates()
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(rates, 3, 20, 60*time.Second)
	var gaps []float64
	var last time.Duration
	for _, x := range a {
		if x.kind == opFeedback {
			gaps = append(gaps, float64(x.at-last))
			last = x.at
		}
	}
	m := mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	cv := math.Sqrt(v/float64(len(gaps))) / m
	if cv < 0.8 || cv > 1.2 {
		t.Fatalf("feedback inter-arrival coefficient of variation %.2f, want about 1", cv)
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	// op [0,100] > client [10,100] > router [20,95] > {leader [30,60] >
	// stages [35,40],[38,45],[50,55]; ackwait [62,90]}.
	spans := []span{
		{id: 1, name: spanOp, start: 0, end: 100},
		{id: 2, name: spanClient, start: 10, end: 100, parent: 1},
		{id: 3, name: spanRouter, start: 20, end: 95, parent: 2},
		{id: 4, name: spanLeader, start: 30, end: 60, parent: 3},
		{id: 5, name: spanStage, start: 35, end: 40, parent: 4},
		{id: 6, name: spanStage, start: 38, end: 45, parent: 4}, // overlaps its sibling
		{id: 7, name: spanStage, start: 50, end: 55, parent: 4},
		{id: 8, name: spanWait, start: 62, end: 90, parent: 3},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 10, 2: 15, 3: 17, 4: 15, 5: 5, 6: 7, 7: 5, 8: 28}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	// Children that do not overlap: self times sum to the root.
	var sum int64
	for _, s := range spans {
		if s.id != 6 {
			sum += self[s.id]
		}
	}
	if sum+5 != 100 { // span 6 covers 5 ns its sibling does not
		t.Errorf("self times sum to %d, want the root's 100", sum+5)
	}
}

func TestAttributionSumsToEndToEnd(t *testing.T) {
	spans := []span{
		{id: 1, name: spanOp, req: 9, user: "u", route: "plan", start: 0, end: 1000},
		{id: 2, name: spanClient, req: 9, user: "u", route: "plan", start: 100, end: 1000},
		{id: 3, name: spanRouter, req: 9, route: "/api/plan", start: 200, end: 950},
		{id: 4, name: spanLeader, user: "u", route: "/api/plan", start: 300, end: 800},
		{id: 5, name: spanStage, user: "u", route: "predict", seq: stageRequest, start: 350, end: 400},
		{id: 6, name: spanStage, user: "u", route: "rank", seq: stageRequest, start: 500, end: 700},
		// A warmer stage call inside the same interval is not the request's.
		{id: 7, name: spanStage, user: "", route: "rank", seq: stageWarm, start: 450, end: 460},
		{id: 10, name: spanOp, req: 10, user: "v", route: "feedback", start: 0, end: 50000},
		{id: 11, name: spanClient, req: 10, user: "v", route: "feedback", start: 500, end: 50000},
		{id: 12, name: spanRouter, req: 10, route: "/api/feedback", seq: 42, start: 600, end: 49900},
		{id: 13, name: spanLeader, user: "v", route: "/api/feedback", seq: 42, start: 700, end: 1500},
		{id: 14, name: spanWait, seq: 42, start: 1600, end: 49800},
	}
	a := attribute(spans, 400)
	p := a.byKind[opPlan]
	if p.ops != 1 || p.loadgen != 100 || p.client != 150 || p.router != 250 || p.httpapi != 250 || p.pipe != 250 {
		t.Fatalf("plan shares %+v", p)
	}
	w := a.byKind[opFeedback]
	if w.ackWait != 48200 || w.wal != 400 || w.httpapi != 400 {
		t.Fatalf("write shares %+v", w)
	}
	for _, s := range []layerShare{p, w} {
		if s.sum() != s.e2e {
			t.Errorf("layers sum to %v, end-to-end is %v", s.sum(), s.e2e)
		}
	}
	if a.unlinked != 0 {
		t.Errorf("%d unlinked", a.unlinked)
	}
}

func TestServerKnobsAppearInCommands(t *testing.T) {
	var src strings.Builder
	for _, f := range []string{"../cmd/pphcr-server/main.go", "../cmd/pphcr-server/replication.go", "../cmd/pphcr-router/main.go"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for typ, fields := range serverKnobs {
		for _, f := range fields {
			if !strings.Contains(src.String(), f+":") && !strings.Contains(src.String(), "."+f+" =") {
				t.Errorf("%s.%s is allowed but neither command sets it", typ, f)
			}
		}
	}
}

func TestDefaultsCheckFindsOverrides(t *testing.T) {
	type knobs struct {
		Interval time.Duration
		Every    int
		Now      func() time.Time
		hidden   int
	}
	fresh := &knobs{Interval: 50 * time.Millisecond, Every: 3}
	used := &knobs{Interval: 10 * time.Millisecond, Every: 3, Now: time.Now, hidden: 1}
	if got := changedFields(fresh, used); !reflect.DeepEqual(got, []string{"Interval", "Now"}) {
		t.Fatalf("changedFields = %v", got)
	}
	if got := setFields(knobs{Every: 1}); !reflect.DeepEqual(got, []string{"Every"}) {
		t.Fatalf("setFields = %v", got)
	}
	if got := disallowed("replicate.Standby", []string{"Interval"}); len(got) != 1 {
		t.Fatalf("a standby poll override must be refused, got %v", got)
	}
	if got := disallowed("replicate.Router", []string{"HealthInterval"}); len(got) != 0 {
		t.Fatalf("pphcr-router sets HealthInterval, got %v", got)
	}
}

func TestStallIsInsideTheLeaderSpan(t *testing.T) {
	// The attribution self-test charges its stall to the leader mux: the
	// stall must fall inside the span that wrapper records.
	r := newRecorder(true, 3*time.Millisecond)
	r.on.Store(true)
	h := r.wrapLeader(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/api/plan", strings.NewReader(`{"user_id":"u"}`)))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/recommendations?user=u", nil))
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if d := time.Duration(spans[0].dur()); spans[0].route != "/api/plan" || spans[0].user != "u" || d < 3*time.Millisecond {
		t.Errorf("plan span %+v lasted %v, want the 3ms stall inside it", spans[0], d)
	}
	if d := time.Duration(spans[1].dur()); d >= 3*time.Millisecond {
		t.Errorf("recommendation span lasted %v; only plans stall", d)
	}
}
