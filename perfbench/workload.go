package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pphcr/internal/client"
	"pphcr/internal/content"
	"pphcr/internal/httpapi"
	"pphcr/internal/scenario"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// worldSpec sizes the seeded world a workload runs on.
type worldSpec struct {
	podcastsPerDay int
}

// feedShare is the share of one day's podcasts held back from the
// preload for the broadcaster's live feed.
const feedShare = 0.25

// Four days of content and commutes (Mon–Thu): the 72 h candidate
// window ending at the world clock covers three of them.
const worldDays = 4

func (s worldSpec) params(seed int64) synth.Params {
	return synth.Params{Seed: seed, Days: worldDays, Users: 20, PodcastsPerDay: s.podcastsPerDay}
}

// anchor is the world clock at boot: 06:00 on the first weekday after
// the preloaded days, so the warmer and the drivers' morning commutes
// share the 06–10 weekday time bucket.
func (s worldSpec) anchor(w *synth.World) time.Time {
	day := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	for day.Weekday() == time.Saturday || day.Weekday() == time.Sunday {
		day = day.AddDate(0, 0, 1)
	}
	return day.Add(6 * time.Hour)
}

// splitCorpus separates the preload from the held-back live feed: the
// latest-published podcasts, feedShare of a day's worth, in publish
// order.
func (s worldSpec) splitCorpus(w *synth.World) (preload, feed []content.RawPodcast) {
	corpus := append([]content.RawPodcast(nil), w.Corpus...)
	sort.SliceStable(corpus, func(i, j int) bool { return corpus[i].Published.Before(corpus[j].Published) })
	n := int(float64(s.podcastsPerDay) * feedShare)
	return corpus[:len(corpus)-n], corpus[len(corpus)-n:]
}

// opKind is a client operation type.
type opKind int

const (
	opPlan opKind = iota
	opRecommend
	opFeedback
	opTrack
	numOpKinds
)

var opNames = [numOpKinds]string{"plan", "recommend", "feedback", "track"}

func (k opKind) isWrite() bool { return k == opFeedback || k == opTrack }

// workload is one traffic mix over one world.
type workload struct {
	name string
	spec worldSpec
	// script and phase name the scenario engine's phase
	// (internal/scenario) whose operation mix the workload's shares come
	// from.
	script, phase string
	// fixesOnly drops the phase's feedback, so the only writes are GPS
	// fixes, which leave warm plans warm.
	fixesOnly bool
	// ingestEvery, when non-zero, is the broadcaster's publish period.
	ingestEvery time.Duration
}

// Every workload carries every operation type the end-to-end metrics
// need. Reads and writes run on separate client lanes and are scaled
// separately, each keeping its phase's ratio:
//   - plans and recommendations keep the phase's plan:recommendation
//     ratio, scaled so the rarer of the two arrives at readFloor. Each
//     5 s window then expects 150 of it, where a p90 with ten samples
//     beyond it needs 100. A read kind the phase lacks runs at readFloor.
//   - feedback and fixes keep the phase's ratio at writeRate in all.
//     Each write holds one of its lane's nproc connections until the
//     standby's next 50 ms poll, about 30 ms, so faster writes would
//     queue behind each other. A 20 s phase holds about 240 writes.
const (
	readFloor     = 30.0
	writeRate     = 12.0
	windowSeconds = 5
)

var workloads = []workload{
	{
		// Rush hour at its peak, minus its feedback: the proactive
		// promise is warm plans served to drivers who wrote nothing but
		// their position.
		name: "commute-warm", spec: worldSpec{podcastsPerDay: 100},
		script: "rush-hour", phase: "peak", fixesOnly: true,
	},
	{
		// Off-peak browsing: recommendations outnumber plans, and
		// feedback outnumbers fixes.
		name: "catalog-browse", spec: worldSpec{podcastsPerDay: 1000},
		script: "rush-hour", phase: "calm",
		ingestEvery: 2 * time.Second,
	},
	{
		// Every operation that lands in the WAL, as the degraded-disk
		// scenario's healthy phase sends them; it sends no
		// recommendations, so they run at readFloor.
		name: "listen-feedback", spec: worldSpec{podcastsPerDay: 100},
		script: "degraded-disk", phase: "healthy",
	},
}

// mix returns the scenario phase's weights for the operations the
// benchmark sends.
func (w workload) mix() ([numOpKinds]float64, error) {
	var out [numOpKinds]float64
	script, ok := scenario.ByName(w.script)
	if !ok {
		return out, fmt.Errorf("%s: no scenario %q", w.name, w.script)
	}
	for _, p := range script.Phases {
		if p.Name == w.phase {
			out[opPlan] = p.Mix[scenario.OpPlan]
			out[opRecommend] = p.Mix[scenario.OpRecommend]
			out[opFeedback] = p.Mix[scenario.OpFeedback]
			out[opTrack] = p.Mix[scenario.OpFix]
			if w.fixesOnly {
				out[opFeedback] = 0
			}
			return out, nil
		}
	}
	return out, fmt.Errorf("%s: scenario %q has no phase %q", w.name, w.script, w.phase)
}

// rates returns the open-loop Poisson arrival rate of each operation,
// 1/s: the phase's mix scaled as the comment on readFloor says.
func (w workload) rates() ([numOpKinds]float64, error) {
	mix, err := w.mix()
	if err != nil {
		return mix, err
	}
	var r [numOpKinds]float64
	plan, rec := mix[opPlan], mix[opRecommend]
	switch {
	case plan == 0 || rec == 0:
		r[opPlan], r[opRecommend] = readFloor, readFloor
	case plan < rec:
		r[opPlan], r[opRecommend] = readFloor, readFloor*rec/plan
	default:
		r[opPlan], r[opRecommend] = readFloor*plan/rec, readFloor
	}
	writes := mix[opFeedback] + mix[opTrack]
	if writes == 0 {
		return r, fmt.Errorf("%s: phase %q sends no writes", w.name, w.phase)
	}
	r[opFeedback] = writeRate * mix[opFeedback] / writes
	r[opTrack] = writeRate * mix[opTrack] / writes
	return r, nil
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// arrival is one scheduled operation: when it is due (offset from the
// phase start) and what it is. The request body is derived from the
// kind, the driver and the per-kind sequence number.
type arrival struct {
	at     time.Duration
	kind   opKind
	driver int
	n      int // per-kind sequence number
}

// schedule draws the open-loop arrivals for dur: one Poisson process
// per operation kind, merged in time order. The same seed gives the
// same schedule.
func schedule(rates [numOpKinds]float64, seed int64, drivers int, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var out []arrival
	for k := opKind(0); k < numOpKinds; k++ {
		rate := rates[k]
		if rate <= 0 {
			continue
		}
		t, n := 0.0, 0
		for {
			t += rng.ExpFloat64() / rate
			at := time.Duration(t * float64(time.Second))
			if at >= dur {
				break
			}
			out = append(out, arrival{at: at, kind: k, driver: rng.Intn(drivers), n: n})
			n++
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// driver is one commuter's client-side state: the partial trace of this
// morning's commute that its plan requests carry.
type driver struct {
	user     string
	listener *client.Listener // the persona's hidden taste, for its feedback
	partial  []httpapi.TrackBody
	// lastFix is where the live GPS stream continues from; trackSeq
	// counts the fixes posted since.
	lastFix  trajectory.Fix
	trackSeq int
}

// prepareDrivers builds each persona's plan request from the first
// three minutes of its commute on the anchor day. keep, when non-nil,
// decides which personas drive.
func prepareDrivers(w *synth.World, anchor time.Time) ([]*driver, error) {
	day := time.Date(anchor.Year(), anchor.Month(), anchor.Day(), 0, 0, 0, 0, time.UTC)
	out := make([]*driver, 0, len(w.Personas))
	for _, p := range w.Personas {
		full, _, err := w.CommuteTrace(p, day, true)
		if err != nil {
			return nil, err
		}
		d := &driver{user: p.Profile.UserID, listener: client.NewListener(p.Profile.UserID, p.TrueInterests, p.Seed)}
		for _, fix := range full {
			if fix.Time.Sub(full[0].Time) > 3*time.Minute {
				break
			}
			d.partial = append(d.partial, httpapi.TrackBody{
				UserID: d.user, Lat: fix.Point.Lat, Lon: fix.Point.Lon, Unix: fix.Time.Unix(),
			})
			d.lastFix = fix
		}
		if len(d.partial) == 0 {
			return nil, fmt.Errorf("empty partial trace for %s", d.user)
		}
		out = append(out, d)
	}
	return out, nil
}
