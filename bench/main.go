// Command bench is the repository benchmark: it runs the flow and the PPA
// service on fixed, seeded workloads, prints every end-to-end metric by name
// with its unit, checks every output against flow.Run, and with --trace 1
// measures each layer from the outside. See README.md.
//
// Each workload runs in fresh child processes of this binary, so process-wide
// caches (generated netlists, libraries, the library check) never leak from
// one workload or set-up into another. The parent times each child's set-up,
// takes the host-speed readings the child asks for (calibrate.go), reads its
// peak memory, and prints the result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
)

// setups is how many times a run sets up its workload, each in a fresh
// process; setup_s is their median.
const setups = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	out      string
	workdir  string

	child     bool
	setupOnly bool
}

func main() {
	var o options
	var compare bool
	var bench, golden string
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 12, "length of the timed section, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reporting per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its Chrome trace and layer file")
	flag.StringVar(&o.out, "out", ".bench_build/results.json", "result file the run is appended to")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores")
	flag.BoolVar(&compare, "compare", false, "compare result files: base.json new.json [more...]")
	flag.StringVar(&bench, "benchmark", "BENCHMARK.json", "benchmark definition (metric directions and bounds)")
	flag.StringVar(&golden, "write-golden", "", "write the seed-1 result digests to this file and exit")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit after set-up")
	flag.Parse()

	var err error
	switch {
	case compare:
		err = runCompare(bench, flag.Args(), os.Stdout)
	case golden != "":
		err = writeGolden(golden)
	case o.child:
		err = childMain(o)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childResult is what a child reports on its last line of standard output.
type childResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Latency   []float64            `json:"latency_s,omitempty"`
	CPU       float64              `json:"cpu_s"`
	Extra     map[string][]float64 `json:"extra,omitempty"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	// Host slowness (time ÷ reference time of the calibration kernels, read
	// by the parent): right after set-up, and for each timed operation.
	SetupSlowness float64   `json:"setup_slowness"`
	Slowness      []float64 `json:"slowness,omitempty"`
	CPUScaled     float64   `json:"cpu_scaled_s"`
}

// readyLine tells the parent that set-up is done.
const readyLine = "READY"

func childMain(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{seed: o.seed, sz: fullSizes, window: time.Duration(o.seconds) * time.Second, dir: dir, golden: golden,
		cal: askParent(bufio.NewReader(os.Stdin)), extra: map[string][]float64{}, layers: map[string]float64{}}
	res, err := runChild(r, w, o, func() { fmt.Println(readyLine) })
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runChild sets up and runs one workload in this process; ready is called
// between set-up and the timed (or traced) section.
func runChild(r *runner, w *workload, o options, ready func()) (*childResult, error) {
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()
	steal0, total0 := stealTicks()
	if err := setup(r, w, tr); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	ready()
	r.setupSlow = r.cal()
	if o.setupOnly {
		return &childResult{SetupSlowness: r.setupSlow}, nil
	}
	if tr == nil {
		w.timed(r)
	} else {
		store, err := castore.Open(filepath.Join(r.dir, "castore"))
		if err != nil {
			return nil, err
		}
		r.store = store
		for _, m := range perLayer {
			r.layers[m.name] = 0 // layers a workload does not use read 0
		}
		w.traced(r, tr)
		aggregate(r, tr)
		steal1, total1 := stealTicks()
		if total1 > total0 {
			r.layers["host.steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
		}
		if err := writeTrace(r, w, o, tr); err != nil {
			return nil, err
		}
	}
	return &childResult{Attempted: r.attempted, Failed: r.failed, Errors: r.errs, Latency: r.latency,
		CPU: r.cpu, Extra: r.extra, Layers: r.layers,
		SetupSlowness: r.setupSlow, Slowness: r.slow, CPUScaled: r.cpuScaled}, nil
}

// writeTrace writes the Chrome trace and the layer file (every layer metric
// with its unit and the end-to-end metric it should move).
func writeTrace(r *runner, w *workload, o options, tr *tracer) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Moves string  `json:"moves"`
		On    string  `json:"on"`
	}
	out := map[string]entry{}
	for _, m := range append(append([]metric(nil), perLayer...), workloadTimes...) {
		if v, ok := r.layers[m.name]; ok {
			out[m.name] = entry{Value: v, Unit: m.unit, Moves: m.moves, On: m.on}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", append(data, '\n'), 0o644)
}

// stealTicks reads the host's cumulative steal and total CPU ticks.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// spawn runs one child for the workload, answering its host-speed requests
// with cal, and returns its set-up time (from start to its ready line), its
// result, and its peak resident memory.
func spawn(o options, cal *calibrator, setupOnly bool) (setupS float64, res *childResult, rssMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
		"-trace-dir", o.traceDir, "-workdir", o.workdir}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var last string
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == readyLine && setupS == 0:
			setupS = time.Since(t0).Seconds()
		case line == calLine:
			// A failed write means the child has exited; Wait reports why.
			fmt.Fprintln(stdin, cal.measure())
		default:
			last = line
		}
	}
	// Closed first, so a child still waiting for a reading exits.
	stdin.Close()
	scanErr := sc.Err()
	if scanErr != nil {
		io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", o.workload, err)
	}
	if scanErr != nil {
		return 0, nil, 0, scanErr
	}
	if setupS == 0 {
		return 0, nil, 0, fmt.Errorf("%s child never finished set-up", o.workload)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	res = &childResult{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child result: %w", o.workload, err)
	}
	return setupS, res, rssMB, nil
}

// host describes the machine and build a run was measured on.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() host {
	h := host{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+dirty"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one run in a result file.
type record struct {
	host
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Time      string               `json:"time"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
}

// resultFile is the on-disk result: runs accumulate across invocations.
type resultFile struct {
	Runs []record `json:"runs"`
}

// runWorkload runs one workload the way the benchmark is defined: set-up in
// fresh processes, then the timed (or traced) section, and builds its record.
func runWorkload(o options, cal *calibrator) (*record, error) {
	rec := &record{host: hostInfo(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace == 1, Time: time.Now().UTC().Format(time.RFC3339), Samples: map[string][]float64{}}
	n := setups
	if o.trace == 1 {
		n = 1
	}
	var setupRaw, setupTimes []float64
	var res *childResult
	var rssMB float64
	for i := 0; i < n; i++ {
		s, r, rss, err := spawn(o, cal, i < n-1)
		if err != nil {
			return nil, err
		}
		setupRaw = append(setupRaw, s)
		setupTimes = append(setupTimes, s/r.SetupSlowness)
		res, rssMB = r, rss
	}
	rec.Attempted, rec.Failed, rec.Errors = res.Attempted, res.Failed, res.Errors
	rec.Correct = res.Failed == 0 && res.Attempted > 0
	if o.trace == 1 {
		rec.Metrics = res.Layers
		return rec, nil
	}
	if len(res.Latency) == 0 {
		return nil, fmt.Errorf("%s: no timed operation completed", o.workload)
	}
	n = len(res.Latency)
	scaled := make([]float64, n)
	for i, d := range res.Latency {
		scaled[i] = d / res.Slowness[i]
	}
	rec.Metrics = map[string]float64{
		"latency_ms":  median(scaled) * 1e3,
		"cpu_ms":      res.CPUScaled / float64(n) * 1e3,
		"peak_rss_mb": rssMB,
		"setup_s":     median(setupTimes),
		// As measured, before scaling to the reference host speed.
		"host_speed":     1 / median(res.Slowness),
		"raw_latency_ms": median(res.Latency) * 1e3,
		"raw_cpu_ms":     res.CPU / float64(n) * 1e3,
		"raw_setup_s":    median(setupRaw),
	}
	rec.Samples["latency_s"] = res.Latency
	rec.Samples["setup_s"] = setupRaw
	for k, v := range res.Extra {
		rec.Samples[k] = v
	}
	return rec, nil
}

func parentMain(o options) error {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cal := newCalibrator()
	var recs []record
	for _, name := range names {
		o.workload = name
		rec, err := runWorkload(o, cal)
		if err != nil {
			return err
		}
		printRecord(os.Stdout, rec)
		recs = append(recs, *rec)
	}
	if err := appendResults(o.out, recs); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := printContract(os.Stdout, &rec); err != nil {
			return err
		}
	}
	return nil
}

// printRecord prints every metric of a run by name with its unit, and for
// the latency its sample count, quartiles and tail.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d %s cores=%d GOMAXPROCS=%d commit=%s correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.GoVersion, rec.Cores, rec.GOMAXPROCS, rec.Commit, rec.Correct, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	ms := endToEnd
	if rec.Trace {
		ms = perLayer
	}
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %12.4f %s\n", m.name, rec.Metrics[m.name], m.unit)
	}
	if !rec.Trace {
		fmt.Fprintf(w, "  host speed %.3f of reference; as measured: latency %.4f ms, cpu %.4f ms, setup %.4f s\n",
			rec.Metrics["host_speed"], rec.Metrics["raw_latency_ms"], rec.Metrics["raw_cpu_ms"], rec.Metrics["raw_setup_s"])
	}
	for _, k := range []string{"latency_s", "hot_latency_s"} {
		xs := rec.Samples[k]
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %s: median %.4f ms of %d samples (q1 %.4f, q3 %.4f)", k, median(xs)*1e3, len(xs), q1*1e3, q3*1e3)
		if p, v, ok := tail(xs); ok {
			fmt.Fprintf(w, ", p%g %.4f ms", p, v*1e3)
		}
		fmt.Fprintln(w)
	}
}

// printContract prints the run's one-line JSON result.
func printContract(w io.Writer, rec *record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := endToEnd
	if rec.Trace {
		ms = perLayer
	}
	metrics := map[string]value{}
	for _, m := range ms {
		metrics[m.name] = value{Value: rec.Metrics[m.name], Unit: m.unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func appendResults(path string, recs []record) error {
	var rf resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	rf.Runs = append(rf.Runs, recs...)
	if data, err = json.Marshal(rf); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenConfigs are the configurations whose seed-1 results golden.json
// pins: rep 0 of every flow workload, the hot keys, and the first checked
// cold keys.
func goldenConfigs() []flow.Config {
	var cfgs []flow.Config
	for _, w := range workloads {
		cfgs = append(cfgs, w.inputs(fullSizes, 1)...)
	}
	for i := 1; i < coldChecked; i++ {
		cfgs = append(cfgs, coldConfig(fullSizes, 1, i))
	}
	return cfgs
}

// writeGolden runs every golden configuration through flow.Run and writes
// their digests. Regenerate after a change that alters result bytes on
// purpose.
func writeGolden(path string) error {
	digests := map[string]string{}
	for _, cfg := range goldenConfigs() {
		if _, ok := digests[cfg.Key()]; ok {
			continue
		}
		out, err := runMono([]flow.Config{cfg}, 0)
		if err != nil {
			return err
		}
		digests[cfg.Key()] = digest(out[0])
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%d digests written to %s\n", len(digests), path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
