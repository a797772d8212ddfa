package simserver

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/resultstore"
)

// handleManifest is GET /v1/store/manifest: the compact {key, digest}
// list of everything the local tiers can serve. Replicators diff
// manifests to find keys to pull and push; the body stays small (tens
// of bytes per entry) so a full fleet exchange costs less than one
// simulation.
func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	entries := s.store.ManifestLocal()
	if entries == nil {
		entries = []resultstore.ManifestEntry{}
	}
	writeJSON(w, http.StatusOK, resultstore.Manifest{State: s.store.State(), Entries: entries})
}

// handlePush is POST /v1/store/push: a peer ships one full entry this
// daemon's manifest lacked. The entry is digest-verified before it
// touches any tier — replication must spread results, never corruption
// — so a peer serving rotted bytes gets a 400, not a copy of its rot.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	var e resultstore.Entry
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&e); err != nil {
		s.metrics.pushRejects.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding pushed entry: %v", err))
		return
	}
	if !resultstore.ValidKey(e.Key) {
		s.metrics.pushRejects.Add(1)
		httpError(w, http.StatusBadRequest, "invalid result key")
		return
	}
	if !e.Verify() {
		s.metrics.pushRejects.Add(1)
		httpError(w, http.StatusBadRequest, "pushed entry failed digest verification")
		return
	}
	s.store.Put(&e)
	s.metrics.pushAccepts.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"status": "stored", "key": e.Key})
}
