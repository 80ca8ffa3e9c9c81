package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"pphcr"
	"pphcr/internal/replicate"
	"pphcr/internal/synth"
)

// mountLeaderReplication exposes the leader's shipping source and the
// rebalance entry point.
func mountLeaderReplication(mux *http.ServeMux, sys *pphcr.System, dur *pphcr.Durability, dataDir string) {
	replicate.NewSource(dataDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	mux.HandleFunc("POST /replication/rebalance", func(w http.ResponseWriter, r *http.Request) {
		var req replicate.RebalanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"bad json: %v"}`, err), http.StatusBadRequest)
			return
		}
		start := time.Now()
		applied, err := replicate.Rebalance(r.Context(), sys, req.Source, "/replication", req.Users)
		if err != nil {
			slog.Error("rebalance", "source", req.Source, "users", len(req.Users), "err", err)
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadGateway)
			return
		}
		slog.Info("rebalanced in",
			"users", len(req.Users), "applied", applied, "source", req.Source,
			"dur", time.Since(start).Round(time.Millisecond))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(replicate.RebalanceResponse{Users: len(req.Users), Applied: applied})
	})
}

// ownedPersonas filters personas to the ones this node owns under the
// topology; with no topology every persona is local.
func ownedPersonas(personas []*synth.Persona, ring *replicate.Ring, nodeID string) []*synth.Persona {
	if ring == nil || nodeID == "" {
		return personas
	}
	owned := personas[:0:0]
	for _, p := range personas {
		if ring.Owner(p.Profile.UserID) == nodeID {
			owned = append(owned, p)
		}
	}
	return owned
}
