package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/par"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans nest: a span opened while another is open is its child.
type span struct {
	name   string
	parent int // index into tracer.spans; -1 for a root
	start  time.Duration
	dur    time.Duration
	alloc  uint64 // heap bytes allocated process-wide during the span
	child  time.Duration
	args   map[string]any
	alloc0 uint64 // the heap allocation counter at begin
}

// self is the span's duration minus the time its children cover.
func (s *span) self() time.Duration { return s.dur - s.child }

// tracer records spans in memory, one open chain at a time: the traced
// calls run one after another, so a stack is the whole nesting state.
type tracer struct {
	t0       time.Time
	spans    []span
	stack    []int
	lastFlow int // root span of the most recent tracedRun
	buf      []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), buf: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.buf)
	return t.buf[0].Value.Uint64()
}

// begin opens a span as a child of the innermost open span. A nil tracer
// records nothing.
func (t *tracer) begin(name string, args map[string]any) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, args: args,
		start: time.Since(t.t0), alloc0: t.heapAllocs()})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.dur = time.Since(t.t0) - s.start
	s.alloc = t.heapAllocs() - s.alloc0
	if s.parent >= 0 {
		t.spans[s.parent].child += s.dur
	}
}

// writeChrome writes the spans in Chrome trace-event format (loadable by
// Perfetto and chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"self_ms": s.self().Seconds() * 1e3}
		if s.alloc > 0 { // flow stage spans come from the profile, without allocation counts
			args["alloc_mb"] = float64(s.alloc) / 1e6
		}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// A traced flow's root span carries its group: "traced" flows feed the
// per-stage means; "probe" flows feed the worker-count speedups only.
const (
	groupTraced = "traced"
	groupProbe  = "probe"
)

// profileStages maps the stages of flow's own profile (flow.Result.StageTimes)
// to the span, and per-layer metric, that reports each, in pipeline order.
// opt and route accumulate every pass (pre-route, post-route, sign-off ECO
// and re-route); sta is sign-off timing. A stage not listed here (the cached
// library lookup) is traced as "flow.<stage>" and reported in flow.run_s only.
var profileStages = []struct{ stage, span string }{
	{"generate", "flow.generate"}, {"synth", "synth.run"}, {"place", "place.run"}, {"opt", "opt.run"},
	{"route", "route.run"}, {"sta", "sta.run"}, {"power", "power.run"},
	{"lint", "lint.check"}, {"equiv", "equiv.check"},
}

func stageSpan(stage string) string {
	for _, s := range profileStages {
		if s.stage == stage {
			return s.span
		}
	}
	return "flow." + stage
}

// tracedRun runs cfg through flow.Run inside a "flow" span. The flow's own
// stage profile becomes the span's children, laid end to end in pipeline
// order from the span's start: each child is one stage's accumulated wall
// time, not one interval, and what the profile does not cover (netlist
// snapshots, the wire load model, result assembly) stays the flow span's
// self time. The gate reports' counts ride on the flow span.
func tracedRun(tr *tracer, cfg flow.Config, group string) (*flow.Result, error) {
	root := len(tr.spans)
	tr.lastFlow = root
	args := map[string]any{"config": cfg.Key(), "workers": par.Budget(cfg.Workers), "group": group}
	tr.begin("flow", args)
	res, err := flow.Run(cfg)
	tr.end()
	if err != nil {
		return nil, err
	}
	var points, structural, sat int
	for _, rep := range res.EquivReports {
		points += rep.Points
		structural += rep.Structural
		sat += rep.BySAT
	}
	args["lint_calls"], args["equiv_calls"] = len(res.LintReports), len(res.EquivReports)
	args["points"], args["structural"], args["sat"] = points, structural, sat
	at := tr.spans[root].start
	for _, st := range res.StageTimes {
		tr.spans = append(tr.spans, span{name: stageSpan(st.Stage), parent: root, start: at, dur: st.D,
			args: map[string]any{"workers": st.Workers}})
		tr.spans[root].child += st.D
		at += st.D
	}
	return res, nil
}
