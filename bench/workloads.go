package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"tmi3d/internal/castore"
	"tmi3d/internal/circuits"
	"tmi3d/internal/core"
	"tmi3d/internal/flow"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// sizes are the circuit scales the workloads run at. The smoke test shrinks
// them; everything else uses fullSizes.
type sizes struct {
	matrix float64 // Table-4 matrix
	ldpc   float64 // single LDPC flow
	sweep  float64 // FPU clock sweep
	hot    float64 // serve hot keys
	cold   float64 // serve cold requests
}

// fullSizes are chosen so each workload's operation is short enough for a
// run of the benchmark's length to hold enough repetitions for a steady
// median on a noisy two-core host (see README.md, "Noise").
var fullSizes = sizes{matrix: 0.02, ldpc: 0.2, sweep: 0.1, hot: 0.1, cold: 0.15}

// workload is one set of inputs the benchmark runs, with its own set-up,
// timed operation and correctness checks.
type workload struct {
	name string
	why  string
	// inputs are the configurations whose libraries and generated circuits
	// set-up loads, so the timed section pays for neither.
	inputs func(sz sizes, seed uint64) []flow.Config
	// start, when set, finishes set-up (serve: a warm daemon).
	start func(r *runner) error
	// timed runs the warm-up, the timed section for r.window, and the
	// checks.
	timed func(r *runner)
	// traced runs the workload once with spans around each layer call.
	traced func(r *runner, tr *tracer)
}

var workloads = []*workload{
	{name: "matrix45", why: "Table-4 ten-flow matrix (5 circuits x 2D/T-MI, 45 nm) on the flow pool: the paper's headline experiment; sign-off gates dominate",
		inputs: matrixConfigs, timed: timedSerial(matrix45), traced: tracedSerial(matrix45)},
	{name: "flow_ldpc", why: "one LDPC T-MI flow on all cores: single-flow latency, the only workload where the intra-flow parallel loops carry the load",
		inputs: ldpcConfigs, timed: timedSerial(flowLDPC), traced: tracedSerial(flowLDPC)},
	{name: "sweep_cold", why: "6-point FPU clock sweep through a fresh stage engine and an empty artifact store: stage reuse plus store writes",
		inputs: sweepConfigs, timed: timedSerial(sweepCold), traced: tracedSerial(sweepCold)},
	{name: "sweep_warm", why: "the same sweep re-run by a fresh engine over a primed store: artifact reads and decodes, no stage bodies",
		inputs: sweepConfigs, timed: timedSerial(sweepWarm), traced: tracedSerial(sweepWarm)},
	{name: "serve_hot", why: "PPA daemon, two connections cycling 8 pre-warmed keys: the result-cache hit path (HTTP, LRU, payload write)",
		inputs: serveInputs, start: startServe, timed: timedServe(false), traced: tracedServe(false)},
	{name: "serve_mix", why: "PPA daemon, unique keys on one connection (a real flow and a store write) while a hot connection competes for the cores",
		inputs: serveInputs, start: startServe, timed: timedServe(true), traced: tracedServe(true)},
}

// setup loads the workload's inputs and starts what it serves from, with a
// span around each step when tr is not nil.
func setup(r *runner, w *workload, tr *tracer) error {
	cfgs := w.inputs(r.sz, r.seed)
	tr.begin("setup.library", nil)
	for _, cfg := range cfgs {
		if _, _, err := cfg.Library(); err != nil {
			return err
		}
	}
	tr.end()
	tr.begin("setup.generate", nil)
	for _, cfg := range cfgs {
		if _, _, err := cfg.GenerateDesign(); err != nil {
			return err
		}
	}
	tr.end()
	tr.begin("setup.libcheck", nil)
	err := flow.LibraryCheck().Err()
	tr.end()
	if err != nil || w.start == nil {
		return err
	}
	tr.begin("setup.warm", nil)
	err = w.start(r)
	tr.end()
	return err
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// subSeed is the flow seed of repetition i of a run with seed base: rep 0
// uses base itself, so a run with seed 1 starts on the configurations the
// golden digests cover.
func subSeed(base uint64, i int) uint64 { return base + uint64(i)<<32 }

// runner is one workload run inside a child process: its inputs, scratch
// directory and everything it measured.
type runner struct {
	seed   uint64
	sz     sizes
	window time.Duration // --seconds
	dir    string        // scratch space, removed when the run ends
	golden map[string]string
	store  *castore.Store // bench-owned store for the castore layer probe
	// Host slowness (calibrator readings): right after set-up, and per
	// operation the mean of the readings before and after it. cal takes a
	// reading: askParent in a child, a stand-in in tests.
	cal       func() float64
	setupSlow float64
	slow      []float64 // aligned with latency
	cpuScaled float64   // CPU seconds, each operation's divided by its slowness

	latency   []float64 // seconds per timed operation
	cpu       float64   // CPU seconds spent in the timed operations
	attempted int
	failed    int
	errs      []string
	extra     map[string][]float64 // secondary samples (serve_mix hot latency)
	layers    map[string]float64   // traced run: layer metrics

	sweep sweepState
	srv   *serveState
}

// record adds one timed operation: its wall and CPU seconds and the host
// slowness while it ran.
func (r *runner) record(wall, cpu, slow float64) {
	r.latency = append(r.latency, wall)
	r.slow = append(r.slow, slow)
	r.cpu += cpu
	r.cpuScaled += cpu / slow
}

// fail records one failed or incorrect operation.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// checkGolden compares a result's bytes against the committed digest of its
// configuration, when there is one.
func (r *runner) checkGolden(cfg flow.Config, data []byte) {
	want, ok := r.golden[cfg.Key()]
	if !ok {
		return
	}
	if got := digest(data); got != want {
		r.fail("golden digest mismatch for %s: got %s want %s", cfg.Key(), got, want)
	}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return m, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// encodeAll renders results in the canonical wire encoding.
func encodeAll(rs []*flow.Result) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, res := range rs {
		data, err := flow.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// runMono runs each configuration through flow.Run: the reference path every
// other path must match byte for byte.
func runMono(cfgs []flow.Config, workers int) ([][]byte, error) {
	rs := make([]*flow.Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Workers = workers
		res, err := flow.Run(cfg)
		if err != nil {
			return nil, err
		}
		rs[i] = res
	}
	return encodeAll(rs)
}

// serial is a workload whose operation runs a batch of flow configurations
// and returns their encoded results in configuration order.
type serial struct {
	configs func(sz sizes, seed uint64) []flow.Config
	// fixed makes every repetition reuse the rep-0 configurations.
	fixed bool
	// refWorkers is the worker budget of the flow.Run reference path
	// (0: every core).
	refWorkers int
	// warmup prepares and runs the untimed first repetition; nil means op.
	warmup func(r *runner, cfgs []flow.Config) ([][]byte, error)
	op     func(r *runner, cfgs []flow.Config) ([][]byte, error)
	// check validates one timed repetition beyond byte identity.
	check func(r *runner, cfgs []flow.Config, out [][]byte) error
	// layers, when set, adds workload-specific layer metrics in a traced run.
	layers func(r *runner, tr *tracer, cfgs []flow.Config, ref [][]byte, mono time.Duration)
	// intra is the worker budget the workload's flows run at (0: every core).
	intra int
}

// warm runs the untimed first repetition.
func (w *serial) warm(r *runner, cfgs []flow.Config) ([][]byte, error) {
	if w.warmup != nil {
		return w.warmup(r, cfgs)
	}
	return w.op(r, cfgs)
}

// timedSerial: an untimed warm-up repetition on the rep-0 configurations,
// then timed repetitions for the window, then the checks: the warm-up
// output must equal the flow.Run reference byte for byte (and the golden
// digests, for seed 1), and every timed repetition must pass the workload's
// own check.
func timedSerial(w *serial) func(r *runner) {
	return func(r *runner) {
		base := w.configs(r.sz, r.seed)
		first, err := w.warm(r, base)
		if err != nil {
			r.attempted++
			r.fail("warm-up: %v", err)
			return
		}
		before := r.cal()
		deadline := time.Now().Add(r.window)
		for i := 1; ; i++ {
			cfgs := base
			if !w.fixed {
				cfgs = w.configs(r.sz, subSeed(r.seed, i))
			}
			c0, t0 := cpuTime(), time.Now()
			out, err := w.op(r, cfgs)
			d, cpu := time.Since(t0).Seconds(), cpuTime()-c0
			after := r.cal()
			r.record(d, cpu, (before+after)/2)
			before = after
			r.attempted++
			switch {
			case err != nil:
				r.fail("rep %d: %v", i, err)
			case w.fixed && !equalAll(out, first):
				r.fail("rep %d: output differs from the warm-up repetition", i)
			default:
				if err := roundTrip(out); err != nil {
					r.fail("rep %d: %v", i, err)
				} else if w.check != nil {
					if err := w.check(r, cfgs, out); err != nil {
						r.fail("rep %d: %v", i, err)
					}
				}
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
		ref, err := runMono(base, w.refWorkers)
		if err != nil {
			r.fail("reference flow.Run: %v", err)
			return
		}
		if !equalAll(first, ref) {
			r.fail("warm-up output differs from flow.Run")
		}
		for i, cfg := range base {
			r.checkGolden(cfg, ref[i])
		}
	}
}

// tracedSerial: the warm-up repetition and one operation, untraced, then
// every rep-0 configuration traced through flow.Run at the workload's
// intra-flow worker count; the workload's output must equal those bytes.
func tracedSerial(w *serial) func(r *runner, tr *tracer) {
	return func(r *runner, tr *tracer) {
		base := w.configs(r.sz, r.seed)
		tr.begin("setup.warm", nil)
		first, err := w.warm(r, base)
		tr.end()
		if err != nil {
			r.attempted++
			r.fail("warm-up: %v", err)
			return
		}
		// One operation, untraced inside: the stage counters the layers
		// read are this operation's.
		r.attempted++
		tr.begin("workload.op", nil)
		out, err := w.op(r, base)
		tr.end()
		if err != nil || !equalAll(out, first) {
			r.fail("operation differs from the warm-up repetition (%v)", err)
		}
		ref, mono := traceFlows(r, tr, base, w.intra)
		if ref == nil {
			return
		}
		if !equalAll(first, ref) {
			r.fail("workload output differs from flow.Run")
		}
		for i, cfg := range base {
			r.checkGolden(cfg, ref[i])
		}
		if w.layers != nil {
			w.layers(r, tr, base, ref, mono)
		}
	}
}

// traceFlows runs each configuration through flow.Run at the given worker
// budget, traced, and measures the codec and the store on each result. It
// returns the results' bytes, the reference every other path is compared
// with, and the flows' total time; nil when a flow failed. The longest flow
// is then traced again at one worker and at every core, for the intra-flow
// speedups.
func traceFlows(r *runner, tr *tracer, cfgs []flow.Config, workers int) ([][]byte, time.Duration) {
	out := make([][]byte, len(cfgs))
	var total, longestDur time.Duration
	longest := 0
	for i, cfg := range cfgs {
		cfg.Workers = workers
		r.attempted++
		res, err := tracedRun(tr, cfg, groupTraced)
		if err == nil {
			out[i], err = flow.EncodeResult(res)
		}
		if err != nil {
			r.fail("flow.Run %s: %v", cfg.Key(), err)
			return nil, 0
		}
		if d := tr.spans[tr.lastFlow].dur; d > longestDur {
			longest, longestDur = i, d
		}
		total += tr.spans[tr.lastFlow].dur
		if err := measureCodec(r, tr, cfg, out[i]); err != nil {
			r.fail("codec %s: %v", cfg.Key(), err)
		}
	}
	probe(r, tr, cfgs[longest], out[longest])
	return out, total
}

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// roundTrip checks that every payload decodes and re-encodes to itself.
func roundTrip(out [][]byte) error {
	for _, data := range out {
		res, err := flow.DecodeResult(data)
		if err != nil {
			return err
		}
		again, err := flow.EncodeResult(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(again, data) {
			return fmt.Errorf("result does not round-trip through the codec")
		}
	}
	return nil
}

// ---- matrix45 ----

var matrixCircuits = []string{"FPU", "AES", "LDPC", "DES", "M256"}

func matrixConfigs(sz sizes, seed uint64) []flow.Config {
	var cfgs []flow.Config
	for _, c := range matrixCircuits {
		for _, m := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			cfgs = append(cfgs, flow.Config{Circuit: c, Scale: sz.matrix, Node: tech.N45, Mode: m, Seed: seed})
		}
	}
	return cfgs
}

// runMatrix runs the matrix the way cmd/experiments does: a fresh study, a
// flow pool of GOMAXPROCS, the intra-flow budget split across it.
func runMatrix(cfgs []flow.Config, runner func(flow.Config) (*flow.Result, error)) ([][]byte, error) {
	s := core.NewStudy(cfgs[0].Scale)
	s.Seed = cfgs[0].Seed
	s.Runner = runner
	rs, err := s.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	return encodeAll(rs)
}

var matrix45 = &serial{
	configs:    matrixConfigs,
	refWorkers: 0,
	intra:      1,
	op: func(r *runner, cfgs []flow.Config) ([][]byte, error) {
		return runMatrix(cfgs, nil)
	},
	// The paper's relationship: T-MI total power below 2D for every circuit.
	check: func(r *runner, cfgs []flow.Config, out [][]byte) error {
		for i := 0; i+1 < len(out); i += 2 {
			d2, err := flow.DecodeResult(out[i])
			if err != nil {
				return err
			}
			d3, err := flow.DecodeResult(out[i+1])
			if err != nil {
				return err
			}
			if !(d3.Power.Total < d2.Power.Total) {
				return fmt.Errorf("%s: T-MI total power %.4g mW not below 2D %.4g mW",
					cfgs[i].Circuit, d3.Power.Total, d2.Power.Total)
			}
		}
		return nil
	},
	// Pool occupancy: per-flow wall time through a timing runner, over
	// workers x matrix wall time. Each flow writes only its own slot, and
	// RunAll returns after every flow has finished.
	layers: func(r *runner, tr *tracer, cfgs []flow.Config, ref [][]byte, mono time.Duration) {
		slot := make(map[string]int, len(cfgs))
		for i, cfg := range cfgs {
			slot[cfg.Key()] = i
		}
		perFlow := make([]float64, len(cfgs))
		timedFlow := func(cfg flow.Config) (*flow.Result, error) {
			t0 := time.Now()
			res, err := flow.Run(cfg)
			perFlow[slot[cfg.Key()]] = time.Since(t0).Seconds()
			return res, err
		}
		t0 := time.Now()
		out, err := runMatrix(cfgs, timedFlow)
		wall := time.Since(t0).Seconds()
		if err != nil || !equalAll(out, ref) {
			r.fail("matrix with a timing runner differs from flow.Run (%v)", err)
			return
		}
		busy, longest := 0.0, 0.0
		for _, d := range perFlow {
			busy += d
			longest = max(longest, d)
		}
		r.layers["core.pool_busy_frac"] = busy / (float64(runtime.GOMAXPROCS(0)) * wall)
		r.layers["core.longest_flow_s"] = longest
	},
}

// ---- flow_ldpc ----

func ldpcConfigs(sz sizes, seed uint64) []flow.Config {
	return []flow.Config{{Circuit: "LDPC", Scale: sz.ldpc, Node: tech.N45, Mode: tech.ModeTMI, Seed: seed}}
}

// flowLDPC runs the flow at every core; its reference is the serial run, so
// each run also checks worker-count byte identity.
var flowLDPC = &serial{
	configs:    ldpcConfigs,
	refWorkers: 1,
	intra:      0,
	op: func(r *runner, cfgs []flow.Config) ([][]byte, error) {
		return runMono(cfgs, 0)
	},
}

// ---- sweep_cold, sweep_warm ----

var sweepFactors = []float64{1, 1.1, 1.2, 1.3, 1.4, 1.5}

// sweepConfigs is the FPU clock sweep: the Table-12 clock (ClockPs 0), then
// x1.1 ... x1.5 of it.
func sweepConfigs(sz sizes, seed uint64) []flow.Config {
	base, err := circuits.TargetClockPs("FPU", tech.N45)
	if err != nil {
		panic(err) // FPU is a built-in circuit
	}
	cfgs := make([]flow.Config, len(sweepFactors))
	for i, f := range sweepFactors {
		cfgs[i] = flow.Config{Circuit: "FPU", Scale: sz.sweep, Node: tech.N45, Mode: tech.ModeTMI, Seed: seed}
		if i > 0 {
			cfgs[i].ClockPs = base * f
		}
	}
	return cfgs
}

// sweepState carries a sweep workload's store directories and the counters
// of its last engine between the timed operation and its check.
type sweepState struct {
	dir      string // last cold store (removed by the check)
	primed   string // the warm workload's primed store
	counters map[string]stage.Counters
}

// runSweep runs the sweep points through a fresh engine over dir.
func runSweep(r *runner, dir string, cfgs []flow.Config) ([][]byte, error) {
	e, err := stage.New(dir)
	if err != nil {
		return nil, err
	}
	rs := make([]*flow.Result, len(cfgs))
	for i, cfg := range cfgs {
		if rs[i], err = e.Run(cfg); err != nil {
			return nil, err
		}
	}
	r.sweep.counters = e.Counters()
	return encodeAll(rs)
}

func coldSweep(r *runner, cfgs []flow.Config) ([][]byte, error) {
	dir, err := os.MkdirTemp(r.dir, "cold-")
	if err != nil {
		return nil, err
	}
	r.sweep.dir = dir
	return runSweep(r, dir, cfgs)
}

// executions sums stage-body executions over the named nodes (all nodes when
// names is empty).
func executions(c map[string]stage.Counters, names ...string) uint64 {
	var n uint64
	for name, ct := range c {
		if len(names) == 0 {
			n += ct.Executions
		}
		for _, want := range names {
			if name == want {
				n += ct.Executions
			}
		}
	}
	return n
}

var upstreamNodes = []string{"wlm", "synth", "place"}

func cachedNodes() []string {
	var names []string
	for _, n := range stage.Nodes {
		if n.Cached {
			names = append(names, n.Name)
		}
	}
	return names
}

var sweepCold = &serial{
	configs:    sweepConfigs,
	refWorkers: 0,
	intra:      0,
	op:         coldSweep,
	// A sweep synthesizes and places once, whatever its length.
	check: func(r *runner, cfgs []flow.Config, out [][]byte) error {
		os.RemoveAll(r.sweep.dir)
		if n := executions(r.sweep.counters, upstreamNodes...); n != uint64(len(upstreamNodes)) {
			return fmt.Errorf("cold sweep ran %d upstream stage bodies, want %d", n, len(upstreamNodes))
		}
		return nil
	},
	layers: sweepLayers,
}

var sweepWarm = &serial{
	configs:    sweepConfigs,
	fixed:      true,
	refWorkers: 0,
	intra:      0,
	warmup: func(r *runner, cfgs []flow.Config) ([][]byte, error) {
		dir, err := os.MkdirTemp(r.dir, "primed-")
		if err != nil {
			return nil, err
		}
		r.sweep.primed = dir
		return runSweep(r, dir, cfgs)
	},
	op: func(r *runner, cfgs []flow.Config) ([][]byte, error) {
		return runSweep(r, r.sweep.primed, cfgs)
	},
	// A re-run over a primed store executes no cached stage body.
	check: func(r *runner, cfgs []flow.Config, out [][]byte) error {
		if n := executions(r.sweep.counters, cachedNodes()...); n != 0 {
			return fmt.Errorf("warm sweep ran %d cached stage bodies, want 0", n)
		}
		return nil
	},
	layers: sweepLayers,
}

// sweepLayers measures the engine per point, cold and then warm over the
// store the cold pass filled, and reads the counters of the workload's own
// operation (cold for sweep_cold, warm for sweep_warm).
func sweepLayers(r *runner, tr *tracer, cfgs []flow.Config, ref [][]byte, mono time.Duration) {
	own := r.sweep.counters
	points := float64(len(cfgs))
	r.layers["stage.execs_per_point"] = float64(executions(own)) / points
	r.layers["stage.upstream_execs_per_point"] = float64(executions(own, upstreamNodes...)) / points
	for _, c := range own {
		r.layers["stage.mem_hits"] += float64(c.MemHits)
		r.layers["stage.disk_hits"] += float64(c.DiskHits)
	}
	dir, err := os.MkdirTemp(r.dir, "layers-")
	if err != nil {
		r.fail("%v", err)
		return
	}
	for _, pass := range []string{"cold", "warm"} {
		e, err := stage.New(dir)
		if err != nil {
			r.fail("%v", err)
			return
		}
		t0 := time.Now()
		for i, cfg := range cfgs {
			tr.begin("stage.run", map[string]any{"pass": pass, "config": cfg.Key()})
			res, err := e.Run(cfg)
			tr.end()
			if err != nil {
				r.fail("%s sweep: %v", pass, err)
				return
			}
			if data, err := flow.EncodeResult(res); err != nil || !bytes.Equal(data, ref[i]) {
				r.fail("%s staged point %d differs from flow.Run (%v)", pass, i, err)
			}
		}
		wall := time.Since(t0).Seconds()
		r.layers["stage.point_"+pass+"_s"] = wall / points
		if pass == "cold" {
			r.layers["stage.cold_vs_mono"] = wall / mono.Seconds()
		}
	}
}
