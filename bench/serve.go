package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/serve"
	"tmi3d/internal/tech"
)

// connections is the daemon's client count: a fixed fleet, one per core of
// the two-core host.
const connections = 2

// coldChecked is how many of serve_mix's cold responses are checked against
// flow.Run after the timed window.
const coldChecked = 5

// hotKeys are the 8 keys the hot connections cycle: FPU, AES, LDPC and DES
// in 2D and T-MI. Their seed is fixed, so every run checks their bytes
// against the golden digests without re-running the flows.
func hotKeys(sz sizes) []flow.Config {
	var cfgs []flow.Config
	for _, c := range []string{"FPU", "AES", "LDPC", "DES"} {
		for _, m := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			cfgs = append(cfgs, flow.Config{Circuit: c, Scale: sz.hot, Node: tech.N45, Mode: m, Seed: 1})
		}
	}
	return cfgs
}

// coldConfig is the i-th cold request of a run: a unique key, so a real flow
// runs and its result is stored.
func coldConfig(sz sizes, seed uint64, i int) flow.Config {
	return flow.Config{Circuit: "FPU", Scale: sz.cold, Node: tech.N45, Mode: tech.ModeTMI, Seed: subSeed(seed, i)}
}

func serveInputs(sz sizes, seed uint64) []flow.Config {
	return append(hotKeys(sz), coldConfig(sz, seed, 0))
}

// serveState is a running in-process daemon and the hot keys' bytes.
type serveState struct {
	srv    *serve.Server
	base   string // http://127.0.0.1:port
	done   chan error
	hot    []flow.Config
	hotRef [][]byte
}

// startServe starts the daemon with the `make serve` defaults (result store,
// no stage cache) on an ephemeral loopback port and warms the hot keys over
// two connections.
func startServe(r *runner) error {
	dir, err := os.MkdirTemp(r.dir, "serve-")
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{StoreDir: dir})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st := &serveState{srv: srv, base: "http://" + l.Addr().String(), done: make(chan error, 1), hot: hotKeys(r.sz)}
	go func() { st.done <- srv.Serve(l) }()
	r.srv = st

	st.hotRef = make([][]byte, len(st.hot))
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for k := 0; k < connections; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(st.base)
			defer c.close()
			for i := k; i < len(st.hot); i += connections {
				body, _, err := c.get(context.Background(), st.hot[i])
				if err != nil {
					errs[k] = err
					return
				}
				st.hotRef[i] = body
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warming hot keys: %w", err)
		}
	}
	return nil
}

// stop drains the daemon and waits for Serve to return.
func (st *serveState) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.done; err == nil {
		err = serr
	}
	return err
}

// client is one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches one PPA result, returning its bytes and X-Cache source.
func (c *client) get(ctx context.Context, cfg flow.Config) ([]byte, string, error) {
	return c.fetch(ctx, "/v1/ppa?"+serve.ConfigQuery(cfg).Encode())
}

func (c *client) fetch(ctx context.Context, path string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// scrape reads the daemon's /metrics into series → value.
func (c *client) scrape() (map[string]float64, error) {
	body, _, err := c.fetch(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// sumPrefix sums every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// traffic is what one timed window of closed-loop clients observed.
type traffic struct {
	hot, cold         []float64 // latencies, seconds
	hotSlow, coldSlow []float64 // host slowness while each request ran
	xcache            map[string]int
	requests          int
	failed            int
	errs              []string
	coldCfgs          []flow.Config // the first coldChecked cold requests
	coldBodies        [][]byte
	cpu, cpuScaled    float64
	before, after     map[string]float64 // /metrics at the start and end of the window
}

// clientLog is one connection and its record; each client goroutine writes
// only its own.
type clientLog struct {
	c        *client
	rng      *rand.Rand
	next     int // the next cold request's index
	lat      []float64
	slow     []float64
	xcache   map[string]int
	failed   int
	errs     []string
	cfgs     []flow.Config
	bodies   [][]byte
	requests int
}

func (l *clientLog) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// segment is how long the connections run between two calibrator readings.
// Host speed moves within seconds, and a request is scaled by the readings
// around its segment.
const segment = time.Second

// drive runs closed-loop clients until the deadline: two hot connections,
// or (mix) one hot and one cold. At the end of each segment both finish
// their request in flight and the calibrator takes a reading.
func drive(r *runner, mix bool, deadline time.Time) (*traffic, error) {
	st := r.srv
	admin := newClient(st.base)
	defer admin.close()
	before, err := admin.scrape()
	if err != nil {
		return nil, err
	}
	logs := make([]clientLog, connections)
	for k := range logs {
		logs[k] = clientLog{c: newClient(st.base), rng: rand.New(rand.NewPCG(r.seed, uint64(k))), xcache: map[string]int{}}
		defer logs[k].c.close()
	}
	t := &traffic{before: before, xcache: map[string]int{}}
	prev := r.cal()
	for time.Now().Before(deadline) {
		end := time.Now().Add(segment)
		if end.After(deadline) {
			end = deadline
		}
		marks := make([]int, connections)
		for k := range logs {
			marks[k] = len(logs[k].lat)
		}
		c0 := cpuTime()
		var wg sync.WaitGroup
		for k := 0; k < connections; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if mix && k == 1 {
					coldLoop(r, &logs[k], end)
				} else {
					hotLoop(st, &logs[k], end)
				}
			}(k)
		}
		wg.Wait()
		cpu := cpuTime() - c0
		next := r.cal()
		slow := (prev + next) / 2
		prev = next
		t.cpu += cpu
		t.cpuScaled += cpu / slow
		for k := range logs {
			for range logs[k].lat[marks[k]:] {
				logs[k].slow = append(logs[k].slow, slow)
			}
		}
	}
	if t.after, err = admin.scrape(); err != nil {
		return nil, err
	}
	for k := range logs {
		l := &logs[k]
		if mix && k == 1 {
			t.cold, t.coldSlow = l.lat, l.slow
			t.coldCfgs, t.coldBodies = l.cfgs, l.bodies
		} else {
			t.hot = append(t.hot, l.lat...)
			t.hotSlow = append(t.hotSlow, l.slow...)
		}
		for xc, n := range l.xcache {
			t.xcache[xc] += n
		}
		t.requests += l.requests
		t.failed += l.failed
		t.errs = append(t.errs, l.errs...)
	}
	return t, nil
}

// hotLoop cycles the hot keys in a seeded order; every response must equal
// the key's warm-up bytes.
func hotLoop(st *serveState, log *clientLog, end time.Time) {
	for time.Now().Before(end) {
		i := log.rng.IntN(len(st.hot))
		t0 := time.Now()
		body, xc, err := log.c.get(context.Background(), st.hot[i])
		log.lat = append(log.lat, time.Since(t0).Seconds())
		log.requests++
		log.xcache[xc]++
		if err == nil && !bytes.Equal(body, st.hotRef[i]) {
			err = fmt.Errorf("hot %s: response differs from the warm-up bytes", st.hot[i].Key())
		}
		if err != nil {
			log.fail(err)
		}
	}
}

// coldLoop sends unique keys: each request runs a flow and writes the store.
func coldLoop(r *runner, log *clientLog, end time.Time) {
	for ; time.Now().Before(end); log.next++ {
		cfg := coldConfig(r.sz, r.seed, log.next)
		t0 := time.Now()
		body, xc, err := log.c.get(context.Background(), cfg)
		log.lat = append(log.lat, time.Since(t0).Seconds())
		log.requests++
		log.xcache[xc]++
		if err != nil {
			log.fail(err)
			continue
		}
		if len(log.cfgs) < coldChecked {
			log.cfgs = append(log.cfgs, cfg)
			log.bodies = append(log.bodies, body)
		}
	}
}

// serveWindow drives the traffic, stops the daemon and records the
// operation samples: cold latency for the mix, hot latency otherwise.
func serveWindow(r *runner, mix bool) *traffic {
	t, err := drive(r, mix, time.Now().Add(r.window))
	if serr := r.srv.stop(); err == nil {
		err = serr
	}
	r.srv = nil
	if err != nil {
		r.attempted++
		r.fail("serve: %v", err)
		return nil
	}
	r.attempted += t.requests
	r.failed += t.failed
	r.errs = append(r.errs, t.errs...)
	ops, slow := t.hot, t.hotSlow
	if mix {
		ops, slow = t.cold, t.coldSlow
		r.extra["hot_latency_s"] = t.hot
	}
	r.latency = append(r.latency, ops...)
	r.slow = append(r.slow, slow...)
	r.cpu += t.cpu
	r.cpuScaled += t.cpuScaled
	return t
}

// checkServed compares served bytes with flow.Run: through the golden digest
// where one exists, else by running the flow.
func checkServed(r *runner, cfgs []flow.Config, bodies [][]byte) {
	for i, cfg := range cfgs {
		if _, ok := r.golden[cfg.Key()]; ok {
			r.checkGolden(cfg, bodies[i])
			continue
		}
		ref, err := runMono([]flow.Config{cfg}, 0)
		if err != nil {
			r.fail("reference flow.Run: %v", err)
			continue
		}
		if !bytes.Equal(ref[0], bodies[i]) {
			r.fail("served bytes differ from flow.Run for %s", cfg.Key())
		}
	}
}

func timedServe(mix bool) func(r *runner) {
	return func(r *runner) {
		hot, hotRef := r.srv.hot, r.srv.hotRef
		t := serveWindow(r, mix)
		checkServed(r, hot, hotRef)
		if t != nil && mix {
			checkServed(r, t.coldCfgs, t.coldBodies)
		}
	}
}

// tracedServe: the same window, the daemon's own counters, then the served
// keys traced through flow.Run, whose bytes the responses must equal.
func tracedServe(mix bool) func(r *runner, tr *tracer) {
	return func(r *runner, tr *tracer) {
		hot, hotRef := r.srv.hot, r.srv.hotRef
		t := serveWindow(r, mix)
		if t == nil {
			return
		}
		for _, src := range []string{"lru", "disk", "run", "join"} {
			r.layers["serve.xcache_"+src] = float64(t.xcache[src])
		}
		d := func(name string) float64 { return t.after[name] - t.before[name] }
		r.layers["serve.rejected"] = d("tmi3d_queue_rejected_total")
		if len(t.hot) > 0 {
			r.layers["serve.hot_hit_frac"] = float64(t.xcache["lru"]) / float64(len(t.hot))
			r.layers["serve.hot_p50_ms"] = median(t.hot) * 1e3
			r.layers["serve.hot_p999_ms"] = percentile(t.hot, 99.9) * 1e3
		}
		if n := d(`tmi3d_request_seconds_count{endpoint="ppa"}`); n > 0 {
			r.layers["serve.handler_mean_ms"] = d(`tmi3d_request_seconds_sum{endpoint="ppa"}`) / n * 1e3
		}
		if runs := d("tmi3d_flow_runs_total"); runs > 0 && len(t.cold) > 0 {
			flowS := (sumPrefix(t.after, "tmi3d_flow_stage_seconds_total") - sumPrefix(t.before, "tmi3d_flow_stage_seconds_total")) / runs
			r.layers["serve.cold_flow_s"] = flowS
			r.layers["serve.cold_overhead_s"] = median(t.cold) - flowS
		}

		cfgs := append(append([]flow.Config(nil), hot...), t.coldCfgs...)
		bodies := append(append([][]byte(nil), hotRef...), t.coldBodies...)
		ref, _ := traceFlows(r, tr, cfgs, 1)
		if ref == nil {
			return
		}
		for i, cfg := range cfgs {
			if !bytes.Equal(ref[i], bodies[i]) {
				r.fail("served bytes differ from flow.Run for %s", cfg.Key())
			}
			r.checkGolden(cfg, ref[i])
		}
	}
}
