package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"powerroute/internal/sim"
)

// ContentTypeCheckpoint is the media type of an encoded engine checkpoint
// (GET/PUT /v1/checkpoint bodies).
const ContentTypeCheckpoint = "application/x-powerroute-checkpoint"

// maxCheckpointBody bounds a PUT /v1/checkpoint body. The sim decoder
// enforces its own payload cap; this just keeps a hostile request from
// buffering unbounded bytes before the decoder sees them.
const maxCheckpointBody = 1<<30 + 1<<20

// handleCheckpointGet streams an operator-driven snapshot: the engine's
// complete per-run state in the versioned checkpoint encoding. The engine
// is locked only while the in-memory checkpoint is taken; encoding and the
// response write happen outside the lock.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cp, err := s.eng.Checkpoint()
	s.mu.Unlock()
	if err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding checkpoint: %v", err)
		return
	}
	w.Header().Set("Content-Type", ContentTypeCheckpoint)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handleCheckpointPut is the operator-driven restore: the body must be a
// checkpoint of this exact world (the world hash is verified), and on
// success the serving engine is replaced by one resumed at the
// checkpoint's step cursor. The ingested price feed is cleared — it
// belonged to the replaced run — so feeders must re-post prices from
// (next − reaction delay) before routing resumes.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	cp, err := sim.DecodeCheckpoint(http.MaxBytesReader(w, r.Body, maxCheckpointBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	eng, err := sim.Restore(s.eng.Scenario(), cp)
	if err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	s.eng = eng
	s.feed.reset()
	s.publish()
	WriteJSON(w, map[string]any{
		"restored_steps": cp.StepsRun,
		"next":           eng.Next(),
	})
}

// WriteCheckpointFile snapshots the engine under the server lock and
// atomically persists it (temp file + rename) to path. Used by the
// daemon's periodic and on-shutdown checkpointing.
func (s *Server) WriteCheckpointFile(path string) error {
	s.mu.Lock()
	cp, err := s.eng.Checkpoint()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	return sim.WriteCheckpointFile(path, cp)
}
