package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
	"tmi3d/internal/power"
)

// stubResult builds a small deterministic result for a config — the serving
// layer must treat it exactly like a real flow result.
func stubResult(cfg flow.Config) *flow.Result {
	return &flow.Result{
		Config:    cfg,
		Footprint: 100 + float64(cfg.Seed),
		DieW:      10, DieH: 10 + float64(cfg.Mode),
		NumCells: 42,
		WNS:      1.5,
		ClockPs:  400,
		Power: &power.Report{
			Total: 2, Cell: 1, Net: 0.5, Wire: 0.3, Pin: 0.2, Leakage: 0.5,
			ByFunction: map[string]float64{"DFF": 0.5, "NAND2": 0.5},
		},
		StageTimes: []flow.StageTime{{Stage: "synth", D: time.Millisecond}},
	}
}

func newTestServer(t *testing.T, cfg Config, runFlow func(flow.Config) (*flow.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runFlow = runFlow
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestSingleflight64Workers is the acceptance-criterion test: 64 concurrent
// identical requests cost exactly one flow execution, every response is
// byte-identical to the direct encoding, and the metrics show the traffic.
func TestSingleflight64Workers(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8},
		func(cfg flow.Config) (*flow.Result, error) {
			runs.Add(1)
			<-release
			return stubResult(cfg), nil
		})

	const n = 64
	url := ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&seed=7"
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Hold the one job until every request has arrived (each must miss the
	// cache and join), then let it finish — maximal contention, zero luck.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.CounterValue("tmi3d_cache_misses_total", "") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %v misses arrived", s.metrics.CounterValue("tmi3d_cache_misses_total", ""))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("flow executions = %d, want exactly 1", got)
	}
	cfg, err := ParseConfig(mustQuery("circuit=FPU&scale=0.1&seed=7"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.EncodeResult(stubResult(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if string(bodies[i]) != string(want) {
			t.Fatalf("request %d body differs from direct encoding:\n%s\nvs\n%s", i, bodies[i], want)
		}
	}
	if joins := s.metrics.CounterValue("tmi3d_singleflight_joins_total", ""); joins != n-1 {
		t.Fatalf("singleflight joins = %v, want %d", joins, n-1)
	}

	// One more request now hits the LRU; /metrics must report non-zero
	// hit/miss and latency counters.
	code, hdr, _ := get(t, url)
	if code != 200 || hdr.Get("X-Cache") != "lru" {
		t.Fatalf("warm request: status %d cache %q", code, hdr.Get("X-Cache"))
	}
	_, _, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`tmi3d_cache_hits_total{tier="lru"} 1`,
		"tmi3d_cache_misses_total 64",
		`tmi3d_request_seconds_count{endpoint="ppa"} 65`,
		"tmi3d_flow_runs_total 1",
		`tmi3d_flow_stage_seconds_total{stage="synth"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func mustQuery(raw string) map[string][]string {
	q := map[string][]string{}
	for _, kv := range strings.Split(raw, "&") {
		parts := strings.SplitN(kv, "=", 2)
		q[parts[0]] = append(q[parts[0]], parts[1])
	}
	return q
}

// TestQueueFullReturns429 fills one worker and a depth-1 queue with blocked
// jobs; the next distinct request must be rejected with 429 and an estimate
// in Retry-After — backpressure, not an invisible backlog.
func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			started <- struct{}{}
			<-release
			return stubResult(cfg), nil
		})

	urlFor := func(seed int) string {
		return ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&seed=" + strconv.Itoa(seed)
	}
	results := make(chan int, 2)
	go func() { c, _, _ := get(t, urlFor(1)); results <- c }()
	<-started // job 1 is running in the single worker
	go func() { c, _, _ := get(t, urlFor(2)); results <- c }()
	// Wait until job 2 occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.queued.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, body := get(t, urlFor(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", code, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if v := s.metrics.CounterValue("tmi3d_queue_rejected_total", ""); v != 1 {
		t.Fatalf("rejected counter = %v, want 1", v)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if c := <-results; c != 200 {
			t.Fatalf("blocked request finished with %d", c)
		}
	}
}

// TestDeadlineExceeded: a request that times out gets 504, but the flow
// keeps running and warms the cache for the retry.
func TestDeadlineExceeded(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4},
		func(cfg flow.Config) (*flow.Result, error) {
			<-release
			return stubResult(cfg), nil
		})
	url := ts.URL + "/v1/ppa?circuit=FPU&scale=0.1"
	code, _, body := get(t, url+"&timeout_ms=50")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, body)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, hdr, _ := get(t, url)
		if code == 200 {
			// A poll can land while the released job is still in the
			// inflight table and join it; that 200 doesn't yet prove the
			// cache was warmed, so keep polling until a cache tier answers.
			if src := hdr.Get("X-Cache"); src == "lru" || src == "disk" {
				break
			} else if src != "join" {
				t.Fatalf("post-timeout hit came from %q, want a cache tier", src)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never warmed the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = s
}

// TestClientCancelGets499: a client that goes away mid-job is answered 499,
// but the job is not abandoned — it completes, lands in the caches, and the
// next request for the key is an LRU hit.
func TestClientCancelGets499(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2},
		func(cfg flow.Config) (*flow.Result, error) {
			started <- struct{}{}
			<-release
			return stubResult(cfg), nil
		})
	const path = "/v1/ppa?circuit=FPU&scale=0.1&seed=3"
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
	}()
	<-started
	cancel()
	<-served
	close(release)
	if rec.Code != 499 {
		t.Fatalf("cancelled request: status %d (%s), want 499", rec.Code, rec.Body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.queued.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "lru" {
		t.Fatalf("request after cancel: status %d cache %q, want 200 from the LRU", rec.Code, rec.Header().Get("X-Cache"))
	}
	if n, err := s.store.Len(); err != nil || n != 1 {
		t.Fatalf("store holds %d entries (err %v), want the abandoned job's 1", n, err)
	}
	if v := s.metrics.CounterValue("tmi3d_requests_total", `endpoint="ppa",code="499"`); v != 1 {
		t.Fatalf("499 requests counted %v, want 1", v)
	}
}

// TestDrainingReturns503: once Shutdown has begun, a request that needs a new
// job is refused with 503 rather than admitted behind a closed queue.
func TestDrainingReturns503(t *testing.T) {
	s, err := NewServer(Config{StoreDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.runFlow = func(cfg flow.Config) (*flow.Result, error) {
		t.Error("flow ran on a draining server")
		return stubResult(cfg), nil
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ppa?circuit=FPU&scale=0.1", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "shutting down") {
		t.Fatalf("request while draining: status %d (%s), want 503", rec.Code, rec.Body)
	}
}

// TestStoreQuarantine: a persisted result damaged between daemon processes
// is quarantined on load — counted in tmi3d_store_quarantined_total — and
// recomputed to the same bytes, never served corrupt.
func TestStoreQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not an entry at all") }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runFlow := func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil }
			const path = "/v1/ppa?circuit=AES&scale=0.2"
			s1, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 1}, runFlow)
			code, _, want := get(t, ts1.URL+path)
			if code != 200 {
				t.Fatalf("first run: %d (%s)", code, want)
			}
			if err := s1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			cfg, err := ParseConfig(mustQuery("circuit=AES&scale=0.2"))
			if err != nil {
				t.Fatal(err)
			}
			entry := s1.store.EntryPath("v1|ppa|" + cfg.Key())
			raw, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, ts2 := newTestServer(t, Config{StoreDir: dir, Workers: 1}, runFlow)
			code, hdr, got := get(t, ts2.URL+path)
			if code != 200 || hdr.Get("X-Cache") != "run" {
				t.Fatalf("after corruption: status %d cache %q, want a recompute", code, hdr.Get("X-Cache"))
			}
			if string(got) != string(want) {
				t.Fatal("recomputed bytes differ from the original result")
			}
			if v := s2.metrics.CounterValue("tmi3d_store_quarantined_total", ""); v != 1 {
				t.Fatalf("quarantined counter = %v, want 1", v)
			}
			if n, _ := s2.store.QuarantineLen(); n != 1 {
				t.Fatalf("quarantine holds %d entries, want 1", n)
			}
		})
	}
}

// TestRestartServesFromDisk: a result computed by one daemon process is
// served by the next from the persistent store without re-running the flow.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 2},
		func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil })
	url1 := ts1.URL + "/v1/ppa?circuit=AES&scale=0.2"
	code, _, body1 := get(t, url1)
	if code != 200 {
		t.Fatalf("first run: %d (%s)", code, body1)
	}

	_, ts2 := newTestServer(t, Config{StoreDir: dir, Workers: 2},
		func(cfg flow.Config) (*flow.Result, error) {
			t.Error("flow re-executed despite persisted result")
			return stubResult(cfg), nil
		})
	code, hdr, body2 := get(t, ts2.URL+"/v1/ppa?circuit=AES&scale=0.2")
	if code != 200 || hdr.Get("X-Cache") != "disk" {
		t.Fatalf("restart: status %d cache %q", code, hdr.Get("X-Cache"))
	}
	if string(body1) != string(body2) {
		t.Fatal("restart served different bytes")
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8},
		func(cfg flow.Config) (*flow.Result, error) {
			r := stubResult(cfg)
			if cfg.Mode.Is3D() {
				r.Footprint = 50 // -50% vs the 2D stub's 100
			}
			return r, nil
		})
	code, _, body := get(t, ts.URL+"/v1/compare?circuit=LDPC&scale=0.1")
	if code != 200 {
		t.Fatalf("compare: %d (%s)", code, body)
	}
	var resp struct {
		D2   json.RawMessage   `json:"2d"`
		TMI  json.RawMessage   `json:"tmi"`
		Diff map[string]string `json:"diff"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("compare response: %v\n%s", err, body)
	}
	if len(resp.D2) == 0 || len(resp.TMI) == 0 {
		t.Fatal("compare response missing sides")
	}
	if resp.Diff["footprint"] != "-50.0%" {
		t.Fatalf("footprint diff = %q, want -50.0%%", resp.Diff["footprint"])
	}
	// mode= is meaningless on compare and must be rejected.
	code, _, _ = get(t, ts.URL+"/v1/compare?circuit=LDPC&scale=0.1&mode=tmi")
	if code != http.StatusBadRequest {
		t.Fatalf("compare with mode=: status %d, want 400", code)
	}
}

func TestPostConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2},
		func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil })
	cfg := flow.Config{Circuit: "DES", Scale: 0.1, ClockPs: 500.25}
	body, _ := json.Marshal(cfg)
	resp, err := http.Post(ts.URL+"/v1/ppa", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST: %d (%s)", resp.StatusCode, data)
	}
	r, err := flow.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Circuit != "DES" || r.Config.ClockPs != 500.25 {
		t.Fatalf("POST served config %+v", r.Config)
	}
	// A GET with the equivalent query shares the POST's cache entry.
	code, hdr, _ := get(t, ts.URL+"/v1/ppa?"+ConfigQuery(flow.Config{Circuit: "DES", Scale: 0.1, ClockPs: 500.25}).Encode())
	if code != 200 || hdr.Get("X-Cache") != "lru" {
		t.Fatalf("GET after POST: status %d cache %q", code, hdr.Get("X-Cache"))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxScale: 0.5},
		func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil })
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/ppa", 400},                        // missing circuit
		{"/v1/ppa?circuit=NOPE", 400},           // unknown circuit
		{"/v1/ppa?circuit=FPU&clocks=5", 400},   // typoed param
		{"/v1/ppa?circuit=FPU&scale=0.9", 400},  // above MaxScale
		{"/v1/ppa?circuit=FPU&mode=4d", 400},    // bad mode
		{"/v1/experiment/table99", 404},         // unknown experiment
		{"/v1/experiment/table1?scale=-1", 400}, // bad scale
		{"/v1/experiment/table1?sead=7", 400},   // typoed experiment param
		{"/v1/experiment/table1?mode=tmi", 400}, // param not on this endpoint
		{"/nope", 404},                          // unknown route
		{"/v1/ppa?circuit=FPU&timeout_ms=abc", 400},
		{"/v1/ppa?circuit=FPU&timeout_ms=0", 400},
		{"/v1/ppa?circuit=FPU&timeout_ms=-5", 400},
		{"/v1/experiment/table1?timeout_ms=1.5", 400},
	} {
		code, _, body := get(t, ts.URL+tc.path)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.path, code, body, tc.code)
		}
	}
}

// TestNonFiniteParamsRejected: strconv.ParseFloat accepts NaN and ±Inf, and
// NaN slips past every range and admission check (it compares false). Each
// float parameter must reject them with a 400 before any flow runs.
func TestNonFiniteParamsRejected(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, MaxScale: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			runs.Add(1)
			return stubResult(cfg), nil
		})
	for _, param := range []string{"scale", "clock", "util", "pincap", "act_pi", "act_seq"} {
		for _, v := range []string{"NaN", "+Inf", "-Inf"} {
			q := url.Values{"circuit": {"FPU"}, param: {v}}
			if code, _, body := get(t, ts.URL+"/v1/ppa?"+q.Encode()); code != http.StatusBadRequest {
				t.Errorf("%s=%s: status %d (%s), want 400", param, v, code, body)
			}
		}
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		q := url.Values{"scale": {v}}
		if code, _, body := get(t, ts.URL+"/v1/experiment/table1?"+q.Encode()); code != http.StatusBadRequest {
			t.Errorf("experiment scale=%s: status %d (%s), want 400", v, code, body)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("non-finite parameters reached the flow %d times", got)
	}
}

// TestPostRejectsBadEnums: the POST body decodes enum fields as bare ints;
// out-of-range values must be a 400 at the boundary, never reach the flow
// (which panics on unknown nodes), and never crash the daemon.
func TestPostRejectsBadEnums(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			runs.Add(1)
			return stubResult(cfg), nil
		})
	for _, body := range []string{
		`{"circuit":"AES","node":5}`,
		`{"circuit":"AES","node":-1}`,
		`{"circuit":"AES","mode":9}`,
		`{"circuit":"AES","lint":3}`,
		`{"circuit":"AES","equiv":-1}`,
		`{"circuit":"AES","resistivity_scale":{"12":2.0}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ppa", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("bad POST bodies reached the flow %d times", got)
	}
	// The daemon is still healthy afterwards.
	if code, _, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after bad POSTs: %d", code)
	}
}

// TestOutOfRangeConfigRejected: GET and POST share one range check, so a
// utilization outside [0, 1] or a negative clock, pin-cap scale, activity or
// resistivity scale is a 400 on either path and never reaches the flow
// (which would ignore it, fail late with a 500, or report negative power).
func TestOutOfRangeConfigRejected(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			runs.Add(1)
			return stubResult(cfg), nil
		})
	for _, q := range []string{
		"util=1.5", "util=3", "util=-0.5", "clock=-100", "pincap=-1", "act_pi=-1", "act_seq=-0.25",
	} {
		if code, _, body := get(t, ts.URL+"/v1/ppa?circuit=FPU&scale=0.05&"+q); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (%s), want 400", q, code, body)
		}
		if code, _, body := get(t, ts.URL+"/v1/compare?circuit=FPU&scale=0.05&"+q); code != http.StatusBadRequest {
			t.Errorf("compare %s: status %d (%s), want 400", q, code, body)
		}
	}
	for _, body := range []string{
		`{"circuit":"NOPE"}`,
		`{"circuit":"FPU","scale":-1}`,
		`{"circuit":"FPU","util":1.5}`,
		`{"circuit":"FPU","util":-0.5}`,
		`{"circuit":"FPU","clock_ps":-100}`,
		`{"circuit":"FPU","pin_cap_scale":-1}`,
		`{"circuit":"FPU","activities":{"primary_input":-1}}`,
		`{"circuit":"FPU","activities":{"seq_output":-0.25}}`,
		`{"circuit":"FPU","resistivity_scale":{"1":-2}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ppa", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("out-of-range configurations reached the flow %d times", got)
	}
}

// TestJobPanicIsAnError: a panic inside a job must surface as that request's
// 500 and leave the worker pool serving subsequent requests.
func TestJobPanicIsAnError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			if cfg.Seed == 666 {
				panic("boom")
			}
			return stubResult(cfg), nil
		})
	code, _, body := get(t, ts.URL+"/v1/ppa?circuit=FPU&scale=0.1&seed=666")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("panicking job: status %d (%s), want 500 mentioning the panic", code, body)
	}
	code, _, body = get(t, ts.URL+"/v1/ppa?circuit=FPU&scale=0.1&seed=1")
	if code != 200 {
		t.Fatalf("request after panic: status %d (%s); worker pool did not survive", code, body)
	}
}

// TestMetricsScrapeDuringSubmit regression-tests the lock ordering between
// the job-table mutex and the metrics registry: singleflight joins and queue
// rejections bump counters on the submit path while a concurrent /metrics
// scrape samples the queue-depth gauge. With the counters bumped under s.mu
// this AB-BA deadlocked; the test hangs (and times out) on regression.
func TestMetricsScrapeDuringSubmit(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(cfg flow.Config) (*flow.Result, error) {
			<-release
			return stubResult(cfg), nil
		})
	// Unblock the workers before the server cleanup drains them (cleanups
	// run last-registered-first).
	t.Cleanup(func() { close(release) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				client := &http.Client{Timeout: 5 * time.Second}
				for i := 0; i < 40; i++ {
					// Scrapes interleave with joins (hot key occupies the
					// worker) and queue-full rejections (cold keys).
					for _, url := range []string{
						ts.URL + "/metrics",
						ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&timeout_ms=1",
						ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&seed=" + strconv.Itoa(g*100+i) + "&timeout_ms=1",
					} {
						if resp, err := client.Get(url); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("scrape vs submit deadlocked")
	}
}

func TestExperimentStatic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1},
		func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil })
	code, hdr, body := get(t, ts.URL+"/v1/experiment/table1")
	if code != 200 {
		t.Fatalf("table1: %d (%s)", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("content type %q", hdr.Get("Content-Type"))
	}
	if len(body) == 0 {
		t.Fatal("empty table")
	}
	// Second fetch is a cache hit with identical bytes.
	code, hdr2, body2 := get(t, ts.URL+"/v1/experiment/table1")
	if code != 200 || hdr2.Get("X-Cache") == "run" {
		t.Fatalf("repeat fetch: status %d cache %q", code, hdr2.Get("X-Cache"))
	}
	if string(body) != string(body2) {
		t.Fatal("table render not byte-stable")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3},
		func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil })
	code, _, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["workers"] != float64(3) {
		t.Fatalf("healthz body: %s", body)
	}
}

// TestGracefulShutdown uses a real listener: Shutdown must stop accepting
// new connections while the in-flight request completes successfully and
// its result still lands in the persistent store.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	dir := t.TempDir()
	s, err := NewServer(Config{StoreDir: dir, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.runFlow = func(cfg flow.Config) (*flow.Result, error) {
		started <- struct{}{}
		<-release
		return stubResult(cfg), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	addr := l.Addr().String()

	type reply struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/ppa?circuit=M256&scale=0.1")
		if err != nil {
			inflight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- reply{code: resp.StatusCode, body: b}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The listener must stop accepting while the in-flight job drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	r := <-inflight
	if r.err != nil || r.code != 200 {
		t.Fatalf("in-flight request: code=%d err=%v", r.code, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The drained job's result persisted.
	store, err := castore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Fatalf("store holds %d entries after drain (err %v), want 1", n, err)
	}
}
