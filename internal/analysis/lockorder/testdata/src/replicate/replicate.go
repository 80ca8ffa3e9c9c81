// Package replicate mirrors the replication locks the analyzer keys
// on: the router's topology lock, the per-partition state lock, the
// follower's promote lock, and the standby's apply lock (a leaf by
// design — always released before the apply path calls into the pphcr
// domain).
package replicate

import "sync"

type nodeState struct {
	mu      sync.Mutex
	healthy bool
}

type Router struct {
	mu    sync.RWMutex
	nodes map[string]*nodeState
}

// Stats is the well-formed nesting: topology lock, then each
// partition's state lock one at a time.
func (r *Router) Stats() int {
	n := 0
	r.mu.RLock()
	for _, ns := range r.nodes {
		ns.mu.Lock()
		if ns.healthy {
			n++
		}
		ns.mu.Unlock()
	}
	r.mu.RUnlock()
	return n
}

// inverted takes the topology lock while holding a partition lock —
// the reverse of the documented order.
func inverted(r *Router, ns *nodeState) {
	ns.mu.Lock()
	r.mu.RLock() // want `lock order inversion: acquiring router topology lock \(Router.mu\) while holding partition state lock \(nodeState.mu\)`
	r.mu.RUnlock()
	ns.mu.Unlock()
}

// siblings holds two partition locks at once; there is no quiesce
// idiom for partitions.
func siblings(a, b *nodeState) {
	a.mu.Lock()
	b.mu.Lock() // want `sibling lock: acquiring partition state lock \(nodeState.mu\) while partition state lock \(nodeState.mu\) is already held`
	b.mu.Unlock()
	a.mu.Unlock()
}

type Standby struct {
	mu      sync.Mutex
	applied uint64
}

// AppliedSeq is the leaf access: nothing else is ever acquired under
// Standby.mu.
func (s *Standby) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

type Follower struct {
	mu      sync.Mutex
	standby *Standby
}

// promote is the well-formed nesting: the promote lock held across the
// standby's own locking.
func (f *Follower) promote() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.standby.mu.Lock()
	defer f.standby.mu.Unlock()
	return f.standby.applied
}

// promoteUnderStandby takes the promote lock while holding the standby's
// apply lock — the reverse of the documented order.
func promoteUnderStandby(f *Follower) {
	f.standby.mu.Lock()
	f.mu.Lock() // want `lock order inversion: acquiring follower promote lock \(Follower.mu\) while holding standby apply lock \(Standby.mu\)`
	f.mu.Unlock()
	f.standby.mu.Unlock()
}
