package main

import (
	"sort"
	"time"
)

// routeOf is the HTTP path each operation kind is sent to.
var routeOf = [numOpKinds]string{
	opPlan: "/api/plan", opRecommend: "/api/recommendations",
	opFeedback: "/api/feedback", opTrack: "/api/track",
}

// layerShare totals, over the operations of one kind, the time each
// layer holds on their blocking path; per gives the mean per operation.
type layerShare struct {
	ops     int
	loadgen float64 // ns: intended send → actual send
	client  float64 // client call minus the router's handler
	router  float64 // router handler minus leader mux and ack wait
	httpapi float64 // leader mux minus pipeline (reads) or WAL append (writes)
	pipe    float64 // request-path pipeline stage calls
	wal     float64 // WAL append, from the append histogram's mean
	ackWait float64 // follower /replication/wait
	e2e     float64 // intended send → response
}

// per is a total's mean per operation (0 with no operations).
func (s layerShare) per(total float64) float64 { return ratio(total, float64(s.ops)) }

// sum totals the layers; it equals e2e when the spans nest.
func (s layerShare) sum() float64 {
	return s.loadgen + s.client + s.router + s.httpapi + s.pipe + s.wal + s.ackWait
}

// merge adds the totals of several kinds (feedback and track are both
// writes).
func merge(shares ...layerShare) layerShare {
	var out layerShare
	for _, s := range shares {
		out.ops += s.ops
		out.loadgen += s.loadgen
		out.client += s.client
		out.router += s.router
		out.httpapi += s.httpapi
		out.pipe += s.pipe
		out.wal += s.wal
		out.ackWait += s.ackWait
		out.e2e += s.e2e
	}
	return out
}

// attribution is what the traced window's spans say about each
// operation kind.
type attribution struct {
	byKind   [numOpKinds]layerShare
	ackWaits []float64 // ns, one per linked write
	unlinked int
}

// attribute links the spans of each traced operation into a tree —
// client and router by request ID; router and leader mux by user, route
// and containment; router and ack wait by WAL sequence and containment;
// leader mux and pipeline stages by user and containment — and averages
// each layer's self time per operation kind. walAppendNs is the mean
// WAL append over the same window, charged to every write.
func attribute(spans []span, walAppendNs float64) attribution {
	var a attribution
	routers := make(map[int64]int)
	ops := make(map[int64]int)
	clients := make(map[int64]int)
	leaders := make(map[string][]int) // user|route → indices by start
	waits := make(map[uint64][]int)
	stages := make(map[string][]int) // user → request-path stage indices by start
	for i, s := range spans {
		switch s.name {
		case spanOp:
			ops[s.req] = i
		case spanClient:
			clients[s.req] = i
		case spanRouter:
			routers[s.req] = i
		case spanLeader:
			leaders[s.user+"|"+s.route] = append(leaders[s.user+"|"+s.route], i)
		case spanWait:
			waits[s.seq] = append(waits[s.seq], i)
		case spanStage:
			if s.seq == stageRequest && s.user != "" {
				stages[s.user] = append(stages[s.user], i)
			}
		}
	}
	for _, m := range []map[string][]int{leaders, stages} {
		for _, idx := range m {
			sort.Slice(idx, func(x, y int) bool { return spans[idx[x]].start < spans[idx[y]].start })
		}
	}
	within := func(inner, outer span) bool { return inner.start >= outer.start && inner.end <= outer.end }
	claimed := make(map[int]bool)

	type linkedOp struct {
		kind           opKind
		op, cl, rt, ld int
		wait           int
		stageIdx       []int
	}
	var linked []linkedOp
	for req, oi := range ops {
		ci, okC := clients[req]
		ri, okR := routers[req]
		if !okC || !okR {
			a.unlinked++
			continue
		}
		kind := kindOfRoute(spans[oi].route)
		l := linkedOp{kind: kind, op: oi, cl: ci, rt: ri, ld: -1, wait: -1}
		rt := spans[ri]
		for _, li := range leaders[spans[oi].user+"|"+routeOf[kind]] {
			if !claimed[li] && within(spans[li], rt) {
				l.ld = li
				claimed[li] = true
				break
			}
		}
		if l.ld < 0 {
			a.unlinked++
			continue
		}
		if kind.isWrite() {
			for _, wi := range waits[rt.seq] {
				if !claimed[wi] && within(spans[wi], rt) {
					l.wait = wi
					claimed[wi] = true
					break
				}
			}
			if l.wait < 0 {
				a.unlinked++
				continue
			}
		} else {
			ld := spans[l.ld]
			list := stages[ld.user]
			j := sort.Search(len(list), func(x int) bool { return spans[list[x]].start >= ld.start })
			for ; j < len(list) && spans[list[j]].start < ld.end; j++ {
				if within(spans[list[j]], ld) {
					l.stageIdx = append(l.stageIdx, list[j])
				}
			}
		}
		linked = append(linked, l)
	}

	// Parent links, then self times over the linked trees.
	var tree []span
	add := func(i int, parent int64) {
		s := spans[i]
		s.parent = parent
		tree = append(tree, s)
	}
	for _, l := range linked {
		add(l.op, 0)
		add(l.cl, spans[l.op].id)
		add(l.rt, spans[l.cl].id)
		add(l.ld, spans[l.rt].id)
		if l.wait >= 0 {
			add(l.wait, spans[l.rt].id)
		}
		for _, si := range l.stageIdx {
			add(si, spans[l.ld].id)
		}
	}
	self := selfTimes(tree)
	for _, l := range linked {
		sh := &a.byKind[l.kind]
		sh.ops++
		sh.e2e += float64(spans[l.op].dur())
		sh.loadgen += float64(self[spans[l.op].id])
		sh.client += float64(self[spans[l.cl].id])
		sh.router += float64(self[spans[l.rt].id])
		httpSelf := float64(self[spans[l.ld].id])
		for _, si := range l.stageIdx {
			sh.pipe += float64(self[spans[si].id])
		}
		if l.wait >= 0 {
			w := float64(self[spans[l.wait].id])
			sh.ackWait += w
			a.ackWaits = append(a.ackWaits, w)
		}
		if l.kind.isWrite() {
			httpSelf -= walAppendNs
			sh.wal += walAppendNs
		}
		sh.httpapi += httpSelf
	}
	return a
}

func kindOfRoute(name string) opKind {
	for k, n := range opNames {
		if n == name {
			return opKind(k)
		}
	}
	return opPlan
}

func us(ns float64) float64 { return ns / float64(time.Microsecond) }
func ms(ns float64) float64 { return ns / float64(time.Millisecond) }
