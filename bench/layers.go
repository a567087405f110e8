package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"tmi3d/internal/flow"
)

// metric is one reported metric. moves names the end-to-end metric a layer
// metric should move, and on names the workloads where it does (README.md
// and BENCHMARK.json carry the same map).
type metric struct {
	name        string
	unit        string
	lowerBetter bool
	moves, on   string
}

// endToEnd are the metrics a user of the flow or the service sees, reported
// for every workload by an untraced run.
var endToEnd = []metric{
	{name: "latency_ms", unit: "ms", lowerBetter: true},
	{name: "cpu_ms", unit: "ms", lowerBetter: true},
	{name: "peak_rss_mb", unit: "MB", lowerBetter: true},
	{name: "setup_s", unit: "s", lowerBetter: true},
}

const (
	flowWorkloads = "matrix45, flow_ldpc"
	allWorkloads  = "all"
	sweeps        = "sweep_cold, sweep_warm"
	serves        = "serve_hot, serve_mix"
)

// perLayer are the traced run's metrics, reported for every workload. Each
// is measured on every workload (traced flows, codec and store probes run
// everywhere), except the stage, serve and pool counts and ratios, which
// read 0 where their layer does no work.
var perLayer = func() []metric {
	ms := []metric{
		{name: "flow.run_s", unit: "s", lowerBetter: true, moves: "latency_ms, cpu_ms", on: flowWorkloads},
		{name: "flow.alloc_mb", unit: "MB", lowerBetter: true, moves: "cpu_ms, peak_rss_mb", on: flowWorkloads},
	}
	for _, s := range profileStages {
		ms = append(ms, metric{name: s.span + "_s", unit: "s", lowerBetter: true, moves: "latency_ms, cpu_ms", on: flowWorkloads})
	}
	return append(ms, []metric{
		{name: "lint.calls", unit: "count", lowerBetter: true, moves: "latency_ms", on: flowWorkloads},
		{name: "equiv.calls", unit: "count", lowerBetter: true, moves: "latency_ms", on: flowWorkloads},
		{name: "equiv.points", unit: "count", lowerBetter: true, moves: "latency_ms", on: flowWorkloads},
		{name: "equiv.structural_frac", unit: "ratio", moves: "latency_ms", on: flowWorkloads},
		{name: "equiv.sat_calls", unit: "count", lowerBetter: true, moves: "latency_ms", on: flowWorkloads},
		{name: "equiv.lib_s", unit: "s", lowerBetter: true, moves: "setup_s", on: allWorkloads},
		{name: "flow.gates_share", unit: "ratio", lowerBetter: true, moves: "latency_ms", on: "matrix45"},
		{name: "par.speedup_place", unit: "x", moves: "latency_ms", on: "flow_ldpc"},
		{name: "par.speedup_opt", unit: "x", moves: "latency_ms", on: "flow_ldpc"},
		{name: "par.speedup_route", unit: "x", moves: "latency_ms", on: "flow_ldpc"},
		{name: "par.speedup_sta", unit: "x", moves: "latency_ms", on: "flow_ldpc"},
		{name: "par.speedup_flow", unit: "x", moves: "latency_ms", on: "flow_ldpc"},
		{name: "flow.encode_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: "sweep_warm, serve_mix"},
		{name: "flow.decode_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: "sweep_warm"},
		{name: "flow.result_kb", unit: "kB", lowerBetter: true, moves: "latency_ms", on: "sweep_warm, serve_hot, serve_mix"},
		{name: "castore.put_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: "sweep_cold, serve_mix"},
		{name: "castore.get_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: "sweep_warm"},
		{name: "stage.execs_per_point", unit: "count", lowerBetter: true, moves: "latency_ms", on: sweeps},
		{name: "stage.upstream_execs_per_point", unit: "count", lowerBetter: true, moves: "latency_ms", on: sweeps},
		{name: "stage.mem_hits", unit: "count", moves: "latency_ms", on: "sweep_cold"},
		{name: "stage.disk_hits", unit: "count", moves: "latency_ms", on: "sweep_warm"},
		{name: "stage.cold_vs_mono", unit: "ratio", lowerBetter: true, moves: "latency_ms", on: "sweep_cold"},
		{name: "serve.xcache_lru", unit: "count", moves: "latency_ms", on: serves},
		{name: "serve.xcache_disk", unit: "count", moves: "latency_ms", on: serves},
		{name: "serve.xcache_run", unit: "count", moves: "latency_ms", on: "serve_mix"},
		{name: "serve.xcache_join", unit: "count", moves: "latency_ms", on: "serve_mix"},
		{name: "serve.rejected", unit: "count", lowerBetter: true, moves: "latency_ms", on: serves},
		{name: "serve.hot_hit_frac", unit: "ratio", moves: "latency_ms", on: serves},
		{name: "core.pool_busy_frac", unit: "ratio", moves: "latency_ms", on: "matrix45"},
		{name: "setup.generate_s", unit: "s", lowerBetter: true, moves: "setup_s", on: allWorkloads},
		{name: "setup.warm_s", unit: "s", lowerBetter: true, moves: "setup_s", on: allWorkloads},
		{name: "host.steal_frac", unit: "ratio", lowerBetter: true, moves: "latency_ms", on: allWorkloads},
	}...)
}()

// workloadTimes are layer timings that exist on one workload only. They are
// written to the trace directory's layer file, not reported per run, since
// elsewhere they would read a constant 0.
var workloadTimes = []metric{
	{name: "core.longest_flow_s", unit: "s", lowerBetter: true, moves: "latency_ms", on: "matrix45"},
	{name: "stage.point_cold_s", unit: "s", lowerBetter: true, moves: "latency_ms", on: "sweep_cold"},
	{name: "stage.point_warm_s", unit: "s", lowerBetter: true, moves: "latency_ms", on: "sweep_warm"},
	{name: "serve.hot_p50_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: "serve_mix"},
	{name: "serve.hot_p999_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: serves},
	{name: "serve.handler_mean_ms", unit: "ms", lowerBetter: true, moves: "latency_ms", on: serves},
	{name: "serve.cold_flow_s", unit: "s", lowerBetter: true, moves: "latency_ms", on: "serve_mix"},
	{name: "serve.cold_overhead_s", unit: "s", lowerBetter: true, moves: "latency_ms", on: "serve_mix"},
}

// aggregate folds the spans into the per-layer metrics. Flow, stage and
// gate metrics are means per traced flow (probe flows excluded); codec and
// store metrics are means per call.
func aggregate(r *runner, tr *tracer) {
	self := map[string]time.Duration{}
	calls := map[string]int{}
	var flows int
	var flowTime time.Duration
	var flowAlloc uint64
	var resultBytes float64
	count := map[string]float64{} // gate counts, summed over traced flows
	for i := range tr.spans {
		s := &tr.spans[i]
		root := i
		for tr.spans[root].parent >= 0 {
			root = tr.spans[root].parent
		}
		if g, ok := tr.spans[root].args["group"]; ok && g != groupTraced {
			continue
		}
		if i == root && s.name == "flow" {
			flows++
			flowTime += s.dur
			flowAlloc += s.alloc
			for _, k := range []string{"lint_calls", "equiv_calls", "points", "structural", "sat"} {
				count[k] += float64(s.args[k].(int))
			}
			continue
		}
		self[s.name] += s.self()
		calls[s.name]++
		if s.name == "castore.put" {
			resultBytes += float64(s.args["bytes"].(int))
		}
	}
	if flows == 0 {
		return // every flow failed; the failures are counted
	}
	n := float64(flows)
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return self[name].Seconds() * 1e3 / float64(calls[name])
	}
	r.layers["flow.run_s"] = flowTime.Seconds() / n
	r.layers["flow.alloc_mb"] = float64(flowAlloc) / 1e6 / n
	for _, s := range profileStages {
		r.layers[s.span+"_s"] = self[s.span].Seconds() / n
	}
	r.layers["lint.calls"] = count["lint_calls"] / n
	r.layers["equiv.calls"] = count["equiv_calls"] / n
	r.layers["equiv.points"] = count["points"] / n
	r.layers["equiv.sat_calls"] = count["sat"] / n
	if count["points"] > 0 {
		r.layers["equiv.structural_frac"] = count["structural"] / count["points"]
	}
	r.layers["equiv.lib_s"] = self["setup.libcheck"].Seconds()
	r.layers["flow.gates_share"] = (self["lint.check"] + self["equiv.check"]).Seconds() / flowTime.Seconds()
	r.layers["flow.encode_ms"] = perCall("flow.encode")
	r.layers["flow.decode_ms"] = perCall("flow.decode")
	r.layers["castore.put_ms"] = perCall("castore.put")
	r.layers["castore.get_ms"] = perCall("castore.get")
	r.layers["flow.result_kb"] = resultBytes / 1e3 / float64(calls["castore.put"])
	r.layers["setup.generate_s"] = self["setup.generate"].Seconds()
	r.layers["setup.warm_s"] = self["setup.warm"].Seconds()
}

// probe traces one configuration at one worker and at every core: the
// intra-flow speedup of each parallel stage and of the whole flow. ref is
// the configuration's result at the workload's own worker budget; worker
// count must not change a byte.
func probe(r *runner, tr *tracer, cfg flow.Config, ref []byte) {
	var durs [2]map[string]time.Duration
	for k, w := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg.Workers = w
		r.attempted++
		res, err := tracedRun(tr, cfg, groupProbe)
		if err == nil {
			var data []byte
			if data, err = flow.EncodeResult(res); err == nil && !bytes.Equal(data, ref) {
				err = fmt.Errorf("output differs at another worker count")
			}
		}
		if err != nil {
			r.fail("probe %s at %d workers: %v", cfg.Key(), w, err)
			return
		}
		durs[k] = map[string]time.Duration{"flow": tr.spans[tr.lastFlow].dur}
		for _, st := range res.StageTimes {
			durs[k][st.Stage] = st.D
		}
	}
	for _, stage := range []string{"place", "opt", "route", "sta", "flow"} {
		r.layers["par.speedup_"+stage] = durs[0][stage].Seconds() / durs[1][stage].Seconds()
	}
}

// measureCodec times the result codec and the content-addressed store on
// one result's bytes, checking both round trips.
func measureCodec(r *runner, tr *tracer, cfg flow.Config, data []byte) error {
	tr.begin("flow.decode", nil)
	res, err := flow.DecodeResult(data)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("flow.encode", nil)
	again, err := flow.EncodeResult(res)
	tr.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, data) {
		return fmt.Errorf("result does not round-trip through the codec")
	}
	key := "bench|" + cfg.Key()
	tr.begin("castore.put", map[string]any{"bytes": len(data)})
	err = r.store.Put(key, data)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("castore.get", nil)
	got, ok, err := r.store.Get(key)
	tr.end()
	if err != nil {
		return err
	}
	if !ok || !bytes.Equal(got, data) {
		return fmt.Errorf("castore returned different bytes")
	}
	return nil
}
