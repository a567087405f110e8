// Package serve is the PPA-as-a-service layer: an HTTP daemon that answers
// power/performance/area queries over the full design flow, backed by a
// persistent content-addressed result store (internal/castore), an in-memory
// LRU, and a bounded job queue with singleflight deduplication and
// backpressure.
//
// The serving contract is byte-identity: a response for a flow configuration
// is exactly flow.EncodeResult(flow.Run(cfg)) — whether it was computed on
// this request, deduplicated onto a concurrent identical request, read back
// from the on-disk store, or served from the LRU. Everything in the package
// is built to preserve that property (canonical JSON, checksummed store
// entries, deterministic flow seeds).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tmi3d/internal/castore"
	"tmi3d/internal/core"
	"tmi3d/internal/flow"
	"tmi3d/internal/report"
	"tmi3d/internal/tech"
)

// Config parameterizes a Server.
type Config struct {
	// StoreDir is the root of the persistent result store (required).
	StoreDir string
	// Workers bounds concurrently executing jobs; 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; a full queue
	// rejects new work with 429 + Retry-After. 0 = 64.
	QueueDepth int
	// LRUSize bounds the in-memory payload cache, in entries. 0 = 256.
	LRUSize int
	// RequestTimeout is the per-request deadline; a request may shorten (but
	// not extend) it with ?timeout_ms=. 0 = 15 minutes.
	RequestTimeout time.Duration
	// MaxScale rejects configurations above this circuit scale (a scale-1
	// AES flow is minutes of compute; an accidental scale-10 must not be
	// admitted). 0 = 1.0.
	MaxScale float64
	// LogWriter receives the structured (JSON lines) request log; nil
	// disables logging.
	LogWriter io.Writer
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.LRUSize <= 0 {
		c.LRUSize = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Minute
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
}

// job is one unit of compute admitted to the queue. Concurrent requests for
// the same key share one job (singleflight): the first creates and enqueues
// it, latecomers wait on done. The job outlives any waiter — a request whose
// deadline expires abandons the wait, but the job still completes and warms
// the caches.
type job struct {
	key  string
	fn   func() ([]byte, error)
	done chan struct{}
	data []byte
	err  error
}

// Server is the PPA daemon: HTTP front end, cache hierarchy (LRU → disk
// store), and a bounded worker pool behind a singleflight job table.
//
// Every mutex here (mu, ewmaMu, studyMu, and those inside lruCache and
// Metrics) is a leaf lock: its critical section takes no other lock, does no
// I/O and runs no callback.
type Server struct {
	cfg     Config
	store   *castore.Store
	lru     *lruCache
	metrics *Metrics
	logger  *slog.Logger
	start   time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool
	wg       sync.WaitGroup

	// queued counts jobs admitted and not yet finished (the queue-depth
	// gauge); an atomic, so readers take no lock.
	queued atomic.Int64

	// ewmaSec tracks recent job cost for the Retry-After estimate.
	ewmaMu  sync.Mutex
	ewmaSec float64

	httpSrv *http.Server

	// runFlow executes one flow; tests substitute a stub to count
	// executions or inject latency. nil = flow.Run.
	runFlow func(flow.Config) (*flow.Result, error)

	// studies caches experiment engines per (scale, seed).
	studyMu sync.Mutex
	studies map[string]*core.Study
}

// NewServer opens the store and starts the worker pool. The server accepts
// work immediately through Handler(); Serve attaches a listener.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	store, err := castore.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	logw := cfg.LogWriter
	if logw == nil {
		logw = io.Discard
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		lru:     newLRU(cfg.LRUSize),
		metrics: NewMetrics(),
		logger:  slog.New(slog.NewJSONHandler(logw, nil)),
		start:   time.Now(),
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueDepth),
		ewmaSec: 30,
		studies: map[string]*core.Study{},
	}
	s.registerMetrics()
	store.OnQuarantine = func(path string, reason error) {
		s.metrics.Add("tmi3d_store_quarantined_total", "", 1)
		s.logger.Warn("store entry quarantined", "path", path, "reason", reason.Error())
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	m := s.metrics
	m.Counter("tmi3d_requests_total", "HTTP requests by endpoint and status code.")
	m.Counter("tmi3d_cache_hits_total", "Result cache hits by tier (lru or disk).")
	m.Counter("tmi3d_cache_misses_total", "Result cache misses (a job was needed).")
	m.Counter("tmi3d_singleflight_joins_total", "Requests that joined an in-flight identical job instead of enqueuing their own.")
	m.Counter("tmi3d_queue_rejected_total", "Jobs rejected with 429 because the queue was full.")
	m.Counter("tmi3d_flow_runs_total", "Full flow executions completed.")
	m.Counter("tmi3d_flow_errors_total", "Flow executions that returned an error.")
	m.Counter("tmi3d_flow_stage_seconds_total", "Cumulative wall-clock seconds per flow stage, from flow.Result.StageTimes.")
	m.Counter("tmi3d_store_quarantined_total", "Corrupted store entries quarantined on load.")
	m.Gauge("tmi3d_queue_depth", "Jobs admitted and not yet finished.", func() float64 {
		return float64(s.queued.Load())
	})
	m.Gauge("tmi3d_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	m.Histogram("tmi3d_request_seconds", "Request latency by endpoint.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
}

// Handler returns the daemon's HTTP handler (also usable under a test
// server or an external net/http server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/ppa", s.instrument("ppa", s.handlePPA))
	mux.HandleFunc("POST /v1/ppa", s.instrument("ppa", s.handlePPA))
	mux.HandleFunc("GET /v1/compare", s.instrument("compare", s.handleCompare))
	mux.HandleFunc("GET /v1/experiment/{id}", s.instrument("experiment", s.handleExperiment))
	return mux
}

// Serve runs the daemon on l until Shutdown; it returns nil after a clean
// shutdown (mapping http.ErrServerClosed, like net/http callers expect).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: stop accepting connections, wait for in-
// flight requests (bounded by ctx), then let the workers finish every
// admitted job — a queued flow is a promise; its result still lands in the
// store for the next process.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ---- job execution ----

var (
	errBusy     = errors.New("queue full")
	errDraining = errors.New("server draining")
)

// runJob executes a job's compute closure, converting a panic into a job
// error: a malformed configuration that trips an internal invariant must
// cost its own request a 500, not crash the daemon's worker pool.
func (s *Server) runJob(j *job) (data []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.logger.Error("job panicked",
				"key", j.key, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			err = fmt.Errorf("internal error: job panicked: %v", p)
		}
	}()
	return j.fn()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		t0 := time.Now()
		data, err := s.runJob(j)
		if err == nil {
			if perr := s.store.Put(j.key, data); perr != nil {
				// A store failure degrades persistence, not correctness.
				s.logger.Error("store put failed", "key", j.key, "error", perr.Error())
			}
			s.lru.Add(j.key, data)
		}
		s.mu.Lock()
		delete(s.jobs, j.key)
		s.mu.Unlock()
		s.queued.Add(-1)
		j.data, j.err = data, err
		close(j.done)
		s.observeJob(time.Since(t0).Seconds())
	}
}

func (s *Server) observeJob(sec float64) {
	s.ewmaMu.Lock()
	s.ewmaSec = 0.7*s.ewmaSec + 0.3*sec
	s.ewmaMu.Unlock()
}

// retryAfterSeconds estimates when queue capacity frees up: recent job cost
// times the backlog per worker, clamped to a sane header range.
func (s *Server) retryAfterSeconds() int {
	s.ewmaMu.Lock()
	ewma := s.ewmaSec
	s.ewmaMu.Unlock()
	est := int(math.Ceil(ewma * float64(s.queued.Load()+1) / float64(s.cfg.Workers)))
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return est
}

// submit joins an existing job for key (joined=true) or admits a new one.
// The bounded queue is the backpressure point: a full queue rejects
// immediately rather than building an invisible backlog.
func (s *Server) submit(key string, fn func() ([]byte, error)) (*job, bool, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if j, ok := s.jobs[key]; ok {
		s.mu.Unlock()
		s.metrics.Add("tmi3d_singleflight_joins_total", "", 1)
		return j, true, nil
	}
	j := &job{key: key, fn: fn, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.jobs[key] = j
		s.queued.Add(1)
		s.mu.Unlock()
		return j, false, nil
	default:
		s.mu.Unlock()
		s.metrics.Add("tmi3d_queue_rejected_total", "", 1)
		return nil, false, errBusy
	}
}

// getOrCompute serves key from the cache hierarchy, computing on miss.
// source reports where the bytes came from: lru, disk, run (this request
// executed) or join (deduplicated onto another request's execution).
func (s *Server) getOrCompute(ctx context.Context, key string, fn func() ([]byte, error)) (data []byte, source string, err error) {
	if d, ok := s.lru.Get(key); ok {
		s.metrics.Add("tmi3d_cache_hits_total", `tier="lru"`, 1)
		return d, "lru", nil
	}
	if d, ok, gerr := s.store.Get(key); gerr != nil {
		return nil, "", gerr
	} else if ok {
		s.lru.Add(key, d)
		s.metrics.Add("tmi3d_cache_hits_total", `tier="disk"`, 1)
		return d, "disk", nil
	}
	s.metrics.Add("tmi3d_cache_misses_total", "", 1)
	j, joined, err := s.submit(key, fn)
	if err != nil {
		return nil, "", err
	}
	source = "run"
	if joined {
		source = "join"
	}
	select {
	case <-j.done:
		return j.data, source, j.err
	case <-ctx.Done():
		return nil, source, ctx.Err()
	}
}

// ---- HTTP plumbing ----

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-request deadline, latency
// histogram, request counter and structured log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if timeout, err := s.requestTimeout(r); err != nil {
			writeJSON(rec, http.StatusBadRequest, errorBody{Error: err.Error()})
		} else {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			h(rec, r.WithContext(ctx))
		}
		sec := time.Since(t0).Seconds()
		label := fmt.Sprintf(`endpoint=%q`, endpoint)
		s.metrics.Observe("tmi3d_request_seconds", label, sec)
		s.metrics.Add("tmi3d_requests_total",
			fmt.Sprintf(`endpoint=%q,code="%d"`, endpoint, rec.status), 1)
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "query", r.URL.RawQuery,
			"status", rec.status, "ms", math.Round(sec*1e6)/1e3,
			"cache", rec.Header().Get("X-Cache"))
	}
}

// requestTimeout is the request's deadline: Config.RequestTimeout, shortened
// (never extended) by ?timeout_ms=. Like ParseConfig, it is strict: a
// malformed, zero or negative value is an error, not a silent default.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.cfg.RequestTimeout
	v := r.URL.Query().Get("timeout_ms")
	if v == "" {
		return timeout, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("param timeout_ms must be a positive integer (milliseconds), got %q", v)
	}
	if ms < timeout.Milliseconds() {
		timeout = time.Duration(ms) * time.Millisecond
	}
	return timeout, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeComputeError maps getOrCompute failures onto HTTP semantics.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "queue full; retry later"})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{
			Error: "deadline exceeded; the flow keeps running and the result will be cached"})
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		w.WriteHeader(499)
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// ---- endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_s":    int64(time.Since(s.start).Seconds()),
		"workers":     s.cfg.Workers,
		"queue_depth": s.queued.Load(),
		"lru_entries": s.lru.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// requestConfig extracts the flow configuration: query parameters on GET, a
// JSON flow.Config body on POST (the round-trippable encoding).
func (s *Server) requestConfig(r *http.Request) (flow.Config, error) {
	if r.Method == http.MethodPost {
		var cfg flow.Config
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return cfg, fmt.Errorf("body: %w", err)
		}
		if cfg.Scale == 0 {
			cfg.Scale = 1.0
		}
		return cfg, checkConfig(cfg)
	}
	return ParseConfig(r.URL.Query())
}

func (s *Server) runner() func(flow.Config) (*flow.Result, error) {
	if s.runFlow != nil {
		return s.runFlow
	}
	return flow.Run
}

// ppaJob builds the compute closure for one configuration: run the flow,
// fold its stage profile into the metrics, encode canonically.
func (s *Server) ppaJob(cfg flow.Config) func() ([]byte, error) {
	return func() ([]byte, error) {
		r, err := s.runner()(cfg)
		if err != nil {
			s.metrics.Add("tmi3d_flow_errors_total", "", 1)
			return nil, err
		}
		s.metrics.Add("tmi3d_flow_runs_total", "", 1)
		for _, st := range r.StageTimes {
			s.metrics.Add("tmi3d_flow_stage_seconds_total",
				fmt.Sprintf(`stage=%q`, st.Stage), st.D.Seconds())
		}
		return flow.EncodeResult(r)
	}
}

func (s *Server) handlePPA(w http.ResponseWriter, r *http.Request) {
	cfg, err := s.requestConfig(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if cfg.Scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", cfg.Scale, s.cfg.MaxScale)})
		return
	}
	data, source, err := s.getOrCompute(r.Context(), "v1|ppa|"+cfg.Key(), s.ppaJob(cfg))
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", source)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// compareDiff is the rendered iso-performance delta. Percentages travel as
// the paper's strings ("-31.2%", "n/a" for undefined deltas over a zero
// baseline) — JSON has no NaN.
type compareDiff struct {
	Footprint string `json:"footprint"`
	WL        string `json:"wl"`
	Total     string `json:"total"`
	Cell      string `json:"cell"`
	Net       string `json:"net"`
	Leakage   string `json:"leakage"`
	Buffers   string `json:"buffers"`
}

type compareResponse struct {
	D2   json.RawMessage `json:"2d"`
	TMI  json.RawMessage `json:"tmi"`
	Diff compareDiff     `json:"diff"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	cfg, err := ParseConfig(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if cfg.Mode.Is3D() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "compare fixes the modes; do not pass mode="})
		return
	}
	if cfg.Scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", cfg.Scale, s.cfg.MaxScale)})
		return
	}
	cfg2 := cfg
	cfg3 := cfg
	cfg3.Mode = tech.ModeTMI
	// Both sides are fetched concurrently; each is its own cache entry, so
	// a compare after a plain query reuses the side already computed.
	type side struct {
		data []byte
		src  string
		err  error
	}
	var d2, d3 side
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d2.data, d2.src, d2.err = s.getOrCompute(r.Context(), "v1|ppa|"+cfg2.Key(), s.ppaJob(cfg2))
	}()
	d3.data, d3.src, d3.err = s.getOrCompute(r.Context(), "v1|ppa|"+cfg3.Key(), s.ppaJob(cfg3))
	wg.Wait()
	for _, sd := range []side{d2, d3} {
		if sd.err != nil {
			s.writeComputeError(w, sd.err)
			return
		}
	}
	r2, err := flow.DecodeResult(d2.data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	r3, err := flow.DecodeResult(d3.data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	diff := flow.Diff(r2, r3)
	w.Header().Set("X-Cache", d2.src+"/"+d3.src)
	writeJSON(w, http.StatusOK, compareResponse{
		D2:  json.RawMessage(d2.data),
		TMI: json.RawMessage(d3.data),
		Diff: compareDiff{
			Footprint: report.Pct(diff.Footprint),
			WL:        report.Pct(diff.WL),
			Total:     report.Pct(diff.Total),
			Cell:      report.Pct(diff.Cell),
			Net:       report.Pct(diff.Net),
			Leakage:   report.Pct(diff.Leakage),
			Buffers:   report.Pct(diff.Buffers),
		},
	})
}
