package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"tmi3d/internal/core"
)

// The experiment endpoint serves the paper's tables and figures as rendered
// text — the entries of core.Experiments, the table cmd/experiments writes,
// fetchable one at a time.
// Renders are deterministic per (id, scale, seed), so they cache in the same
// store as flow results; a full-scale table computed once is served from
// disk forever after.

// studyFor returns the shared experiment engine for a (scale, seed) point.
// Sharing matters: every table at a scale reuses the same flow cache, so
// serving table13 after table4 costs only the delta flows.
func (s *Server) studyFor(scale float64, seed uint64) *core.Study {
	key := strconv.FormatFloat(scale, 'g', -1, 64) + "|" + strconv.FormatUint(seed, 10)
	s.studyMu.Lock()
	defer s.studyMu.Unlock()
	st, ok := s.studies[key]
	if !ok {
		st = core.NewStudy(scale)
		st.Seed = seed
		s.studies[key] = st
	}
	return st
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	exp, err := core.FindExperiment(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	// Same strict parsing contract as ParseConfig: a typoed parameter must
	// not quietly serve the default render.
	for k := range r.URL.Query() {
		if k != "scale" && k != "seed" && !reservedParams[k] {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("unknown parameter %q (scale, seed or timeout_ms)", k)})
			return
		}
	}
	scale := 0.5
	if v := r.URL.Query().Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !finite(f) || f <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "param scale must be a positive number"})
			return
		}
		scale = f
	}
	if scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", scale, s.cfg.MaxScale)})
		return
	}
	var seed uint64
	if v := r.URL.Query().Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "param seed must be an unsigned integer"})
			return
		}
		seed = u
	}
	key := fmt.Sprintf("v1|exp|%s|scale=%s|seed=%d",
		exp.ID, strconv.FormatFloat(scale, 'g', -1, 64), seed)
	data, source, err := s.getOrCompute(r.Context(), key, func() ([]byte, error) {
		text, err := exp.Render(s.studyFor(scale, seed))
		if err != nil {
			return nil, err
		}
		return []byte(text), nil
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", source)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(data)
}
