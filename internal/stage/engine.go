package stage

import (
	"container/list"
	"fmt"
	"os"
	"sync"
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/castore"
	"tmi3d/internal/equiv"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/par"
	"tmi3d/internal/rcx"
	"tmi3d/internal/tech"
)

// Cache events reported to OnEvent and accumulated in Counters.
const (
	EventMemHit  = "hit_mem"  // artifact served from the in-process cache
	EventDiskHit = "hit_disk" // artifact loaded and verified from the store
	EventMiss    = "miss"     // cached node not found in any tier
	EventExecute = "execute"  // node body ran (every miss, plus uncached nodes)
)

// Counters is one stage's cumulative cache accounting.
type Counters struct {
	MemHits    uint64 `json:"hit_mem"`
	DiskHits   uint64 `json:"hit_disk"`
	Misses     uint64 `json:"miss"`
	Executions uint64 `json:"execute"`
}

// RunStats summarizes one Run's cache behavior across all stages.
type RunStats struct {
	MemHits    int
	DiskHits   int
	Executions int
}

// Summary renders the stats in the form the serving layer's X-Stage-Hits
// response header carries.
func (s RunStats) Summary() string {
	return fmt.Sprintf("mem=%d disk=%d run=%d", s.MemHits, s.DiskHits, s.Executions)
}

// memLimit is the default in-process artifact cache capacity (entries). Eight
// cached nodes per flow point means the default holds roughly eight sweep
// points of hot artifacts.
const memLimit = 64

// Engine executes flows as the stage DAG with content-addressed reuse. Its
// Run is a drop-in for flow.Run — byte-identical results at any cache state —
// backed by two tiers: an in-process LRU of artifact values and, when
// opened with a directory, a persistent castore shared across processes.
//
// An Engine is safe for concurrent use; concurrent runs needing the same
// artifact compute it once (the second run waits and counts a memory hit).
type Engine struct {
	store *castore.Store // nil = in-process tiers only

	mu       sync.Mutex
	mem      map[string]*list.Element // artifact ID → LRU element
	lru      *list.List               // of *memEntry, front = most recent
	limit    int
	inflight map[string]*call
	counters map[string]*Counters
	onEvent  func(stage, event string)

	// beforeExecute, when set, runs at the top of every stage body. Only
	// tests set it (export_test.go), to fail a body on demand.
	beforeExecute func(name string)
}

type memEntry struct {
	id string
	v  any
}

// call tracks an artifact computation in flight, so concurrent runs
// deduplicate work instead of racing to execute the same stage.
type call struct {
	wg  sync.WaitGroup
	v   any
	err error
}

// New opens a staged engine. dir roots the persistent artifact store; empty
// means in-process caching only.
func New(dir string) (*Engine, error) {
	e := &Engine{
		mem:      map[string]*list.Element{},
		lru:      list.New(),
		limit:    memLimit,
		inflight: map[string]*call{},
		counters: map[string]*Counters{},
	}
	if dir != "" {
		s, err := castore.Open(dir)
		if err != nil {
			return nil, err
		}
		e.store = s
	}
	return e, nil
}

// Store exposes the persistent tier (nil when in-process only) — the serving
// layer hangs its quarantine metrics off it, tests corrupt entries through it.
func (e *Engine) Store() *castore.Store { return e.store }

// SetMemLimit resizes the in-process artifact cache (entries; minimum 1).
func (e *Engine) SetMemLimit(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.limit = n
	e.evictLocked()
	e.mu.Unlock()
}

// OnEvent registers an observer of cache events (metrics export). The
// callback runs synchronously on the run's goroutine; it must not call back
// into the engine.
func (e *Engine) OnEvent(fn func(stage, event string)) { e.onEvent = fn }

// Counters returns a snapshot of the cumulative per-stage cache counters.
func (e *Engine) Counters() map[string]Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Counters, len(e.counters))
	for name, c := range e.counters {
		out[name] = *c
	}
	return out
}

// StoreLen counts live entries in the persistent tier (0 without one).
func (e *Engine) StoreLen() (int, error) {
	if e.store == nil {
		return 0, nil
	}
	return e.store.Len()
}

func (e *Engine) event(rc *runCtx, stage, ev string) {
	e.mu.Lock()
	c := e.counters[stage]
	if c == nil {
		c = &Counters{}
		e.counters[stage] = c
	}
	switch ev {
	case EventMemHit:
		c.MemHits++
	case EventDiskHit:
		c.DiskHits++
	case EventMiss:
		c.Misses++
	case EventExecute:
		c.Executions++
	}
	e.mu.Unlock()
	if rc != nil {
		switch ev {
		case EventMemHit:
			rc.stats.MemHits++
		case EventDiskHit:
			rc.stats.DiskHits++
		case EventExecute:
			rc.stats.Executions++
		}
	}
	if e.onEvent != nil {
		e.onEvent(stage, ev)
	}
}

// Run executes the flow for cfg through the stage DAG. The result is
// byte-identical to flow.Run(cfg) — same report payload, same final netlist
// and placement — whatever mix of cache tiers served the stages.
func (e *Engine) Run(cfg flow.Config) (*flow.Result, error) {
	res, _, err := e.RunStats(cfg)
	return res, err
}

// RunStats is Run plus this run's cache accounting.
func (e *Engine) RunStats(cfg flow.Config) (*flow.Result, RunStats, error) {
	rc := e.newRun(cfg)
	v, err := rc.artifact("report")
	if err != nil {
		return nil, rc.stats, err
	}
	res, err := flow.DecodeResult(v.([]byte))
	if err != nil {
		return nil, rc.stats, err
	}
	// Reattach the in-memory artifacts the wire payload excludes: the final
	// implementation (for Verilog/DEF export) and this run's stage profile.
	sv, err := rc.artifact("signoff")
	if err != nil {
		return nil, rc.stats, err
	}
	sga := sv.(*signoffArtifact)
	res.Design = sga.Design.Clone()
	res.Placement = sga.Snap.Restore(res.Design)
	res.StageTimes = rc.prof.Times()
	return res, rc.stats, nil
}

// PlanEntry describes one DAG node's cache standing for a config.
type PlanEntry struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
	// Tier is where the artifact would be served from right now: "mem",
	// "disk", "" (absent — the node would execute), or "-" for uncached
	// nodes, which always execute.
	Tier string `json:"tier"`
}

// Plan reports, without executing anything, where each stage of a run for cfg
// would be served from — the `tmi3d stages` subcommand's view.
func (e *Engine) Plan(cfg flow.Config) []PlanEntry {
	cfg = cfg.Normalized()
	idByName := ids(cfg)
	// Snapshot the memory tier's membership under the lock, then probe the
	// disk tier unlocked: a Stat per node while holding e.mu would stall
	// every concurrent artifact() behind the filesystem.
	inMem := make(map[string]bool, len(Nodes))
	e.mu.Lock()
	for i := range Nodes {
		if id := idByName[Nodes[i].Name]; id != "" {
			_, inMem[id] = e.mem[id]
		}
	}
	e.mu.Unlock()
	out := make([]PlanEntry, 0, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		pe := PlanEntry{
			Name:   n.Name,
			Key:    KeyString(cfg, n.Name),
			ID:     idByName[n.Name],
			Cached: n.Cached,
			Tier:   "-",
		}
		if n.Cached {
			pe.Tier = ""
			if inMem[pe.ID] {
				pe.Tier = "mem"
			} else if e.store != nil {
				if _, err := os.Stat(e.store.EntryPath(storeKey(n.Name, pe.ID))); err == nil {
					pe.Tier = "disk"
				}
			}
		}
		out = append(out, pe)
	}
	return out
}

// storeKey is the persistent tier's key for a node's artifact. The name is
// redundant with the ID (the ID hashes it) but keeps entry headers and
// quarantine reports human-attributable.
func storeKey(name, id string) string { return "stage|" + name + "|" + id }

// memGet looks up an artifact, refreshing its recency. Caller holds mu.
func (e *Engine) memGet(id string) (any, bool) {
	el, ok := e.mem[id]
	if !ok {
		return nil, false
	}
	e.lru.MoveToFront(el)
	return el.Value.(*memEntry).v, true
}

// memPut inserts an artifact, evicting the coldest entries past the
// cache limit. Caller holds mu.
func (e *Engine) memPut(id string, v any) {
	if el, ok := e.mem[id]; ok {
		e.lru.MoveToFront(el)
		el.Value.(*memEntry).v = v
		return
	}
	e.mem[id] = e.lru.PushFront(&memEntry{id: id, v: v})
	e.evictLocked()
}

func (e *Engine) evictLocked() {
	for e.lru.Len() > e.limit {
		el := e.lru.Back()
		e.lru.Remove(el)
		delete(e.mem, el.Value.(*memEntry).id)
	}
}

// artifact serves one cached node: memory tier, then the store, then
// execution (with inflight deduplication across concurrent runs).
func (e *Engine) artifact(rc *runCtx, name string) (any, error) {
	id := rc.ids[name]
	e.mu.Lock()
	if v, ok := e.memGet(id); ok {
		e.mu.Unlock()
		e.event(rc, name, EventMemHit)
		return v, nil
	}
	c, waiting := e.inflight[id]
	if !waiting {
		c = &call{}
		c.wg.Add(1)
		e.inflight[id] = c
	}
	e.mu.Unlock()
	if waiting {
		c.wg.Wait()
		if c.err != nil {
			return nil, c.err
		}
		// The other run published the artifact; serving it without
		// re-executing is this run's memory hit.
		e.event(rc, name, EventMemHit)
		return c.v, nil
	}
	done := false
	defer func() {
		if done {
			return
		}
		// The body panicked. Release the call so waiters — and every later
		// run needing this artifact — do not block forever; the panic then
		// carries on up this goroutine.
		c.err = fmt.Errorf("stage: %s body panicked", name)
		e.mu.Lock()
		delete(e.inflight, id)
		e.mu.Unlock()
		c.wg.Done()
	}()
	v, err := e.fill(rc, name, id)
	done = true
	c.v, c.err = v, err
	e.mu.Lock()
	delete(e.inflight, id)
	if err == nil {
		e.memPut(id, v)
	}
	e.mu.Unlock()
	c.wg.Done()
	return v, err
}

// fill loads a node's artifact from the store or executes it. A store hit
// returns the decoded envelope; a miss returns the value the body built,
// encoding it only to persist it, so an engine without a store never touches
// the codec. Either way the result is what the monolith would hand the next
// stage: the codecs are exact inverses.
func (e *Engine) fill(rc *runCtx, name, id string) (any, error) {
	key := storeKey(name, id)
	if e.store != nil {
		data, ok, err := e.store.Get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if v, derr := decodeNode(name, data); derr == nil {
				e.event(rc, name, EventDiskHit)
				return v, nil
			}
			// Undecodable despite a verified checksum: an envelope format
			// skew. Recompute and overwrite below, like any miss.
		}
	}
	e.event(rc, name, EventMiss)
	v, err := rc.execute(name)
	if err != nil {
		return nil, err
	}
	if e.store != nil {
		data, err := encodeNode(name, v)
		if err != nil {
			return nil, err
		}
		if err := e.store.Put(key, data); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// runCtx is one Run's working state: the normalized config, the per-node
// artifact IDs, the per-run values of the uncached nodes, and this run's
// resolved artifacts (so a node consumed by several downstream stages loads
// once per run even if the memory tier has evicted it).
type runCtx struct {
	eng   *Engine
	cfg   flow.Config
	ids   map[string]string
	prof  *flow.Profile
	stats RunStats

	setupDone bool
	seed      uint64
	workers   int

	t   *tech.Technology
	lib *liberty.Library

	gen   *netlist.Design
	calib float64

	gatesCounted bool

	arts map[string]any
}

func (e *Engine) newRun(cfg flow.Config) *runCtx {
	cfg = cfg.Normalized()
	return &runCtx{
		eng:  e,
		cfg:  cfg,
		ids:  ids(cfg),
		prof: flow.NewProfile(),
		arts: map[string]any{},
	}
}

func (rc *runCtx) artifact(name string) (any, error) {
	if v, ok := rc.arts[name]; ok {
		return v, nil
	}
	v, err := rc.eng.artifact(rc, name)
	if err != nil {
		return nil, err
	}
	rc.arts[name] = v
	return v, nil
}

// The uncached nodes execute lazily, at most once per run (gates excepted:
// every consuming stage builds a fresh set, matching the fresh accumulation
// state the monolith's single set has at that stage's boundary).

func (rc *runCtx) setup() {
	if rc.setupDone {
		return
	}
	rc.seed = rc.cfg.DeriveSeed()
	rc.workers = par.Budget(rc.cfg.Workers)
	rc.setupDone = true
	rc.eng.event(rc, "setup", EventExecute)
}

func (rc *runCtx) library() (*tech.Technology, *liberty.Library, error) {
	if rc.lib != nil {
		return rc.t, rc.lib, nil
	}
	rc.setup()
	t0 := time.Now()
	t, lib, err := rc.cfg.Library()
	if err != nil {
		return nil, nil, err
	}
	rc.prof.Add("library", time.Since(t0))
	rc.t, rc.lib = t, lib
	rc.eng.event(rc, "library", EventExecute)
	return t, lib, nil
}

func (rc *runCtx) generate() (*netlist.Design, float64, error) {
	if rc.gen != nil {
		return rc.gen, rc.calib, nil
	}
	rc.setup()
	t0 := time.Now()
	d, calib, err := rc.cfg.GenerateDesign()
	if err != nil {
		return nil, 0, err
	}
	rc.prof.Add("generate", time.Since(t0))
	rc.gen, rc.calib = d, calib
	rc.eng.event(rc, "generate", EventExecute)
	return d, calib, nil
}

func (rc *runCtx) gates() (*flow.GateSet, error) {
	_, lib, err := rc.library()
	if err != nil {
		return nil, err
	}
	gs, err := rc.cfg.Gates(lib, rc.seed, rc.prof)
	if err != nil {
		return nil, err
	}
	if !rc.gatesCounted {
		rc.gatesCounted = true
		rc.eng.event(rc, "gates", EventExecute)
	}
	return gs, nil
}

// captable rebuilds the RC table consumers of the opt cone need. Its inputs
// (technology, ResistivityScale) are pinned by the consumer's artifact ID
// through the opt dependency, so recomputing it is sound.
func (rc *runCtx) captable() *captable.Table {
	return captable.Build(rc.t, captable.Options{ResistivityScale: rc.cfg.ResistivityScale})
}

// execute runs one cached node's stage body — the same stages.go helpers the
// monolithic flow.Run calls, on clones of the consumed artifacts — and
// returns the artifact value: the node's envelope, or for the report node the
// flow.EncodeResult payload. The body hands the value over and keeps no
// reference to it, so the engine may publish it as the immutable artifact.
func (rc *runCtx) execute(name string) (any, error) {
	rc.eng.event(rc, name, EventExecute)
	if rc.eng.beforeExecute != nil {
		rc.eng.beforeExecute(name)
	}
	switch name {
	case "wlm":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		d, _, err := rc.generate()
		if err != nil {
			return nil, err
		}
		model, util := rc.cfg.BuildWLM(d, lib)
		return &wlmArtifact{Model: model, Util: util}, nil

	case "synth":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		src, _, err := rc.generate()
		if err != nil {
			return nil, err
		}
		wv, err := rc.artifact("wlm")
		if err != nil {
			return nil, err
		}
		gs, err := rc.gates()
		if err != nil {
			return nil, err
		}
		d := src.Clone()
		sres, _, err := flow.RunSynth(d, lib, wv.(*wlmArtifact).Model, gs, rc.prof)
		if err != nil {
			return nil, err
		}
		lintR, equivR := gs.Reports()
		return &synthArtifact{
			Design: sres.Design, Stats: sres.Stats, Lint: lintR, Equiv: equivR,
		}, nil

	case "place":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		wv, err := rc.artifact("wlm")
		if err != nil {
			return nil, err
		}
		sv, err := rc.artifact("synth")
		if err != nil {
			return nil, err
		}
		d := sv.(*synthArtifact).Design.Clone()
		pl, err := flow.RunPlace(d, rc.t, lib, wv.(*wlmArtifact).Util, rc.seed, rc.workers, rc.prof)
		if err != nil {
			return nil, err
		}
		return &placeArtifact{Snap: pl.Snapshot()}, nil

	case "opt":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		sv, err := rc.artifact("synth")
		if err != nil {
			return nil, err
		}
		pv, err := rc.artifact("place")
		if err != nil {
			return nil, err
		}
		gs, err := rc.gates()
		if err != nil {
			return nil, err
		}
		sa := sv.(*synthArtifact)
		d := sa.Design.Clone()
		pl := pv.(*placeArtifact).Snap.Restore(d)
		calib := flow.ClockCalibrationFactor(rc.cfg.Circuit, rc.cfg.Node)
		d.TargetClockPs = rc.cfg.SweepClockPs(d.TargetClockPs, calib)
		tb := rc.captable()
		areaBudget := pl.Die.Area() * 0.95
		// The post-synth equivalence reference is the synth artifact itself:
		// value-equal to the monolith's post-synth snapshot, read-only here.
		preStats, _, err := flow.ClosePreRoute(d, pl, tb, lib, areaBudget, sa.Design, rc.workers, gs, rc.prof)
		if err != nil {
			return nil, err
		}
		lintR, equivR := gs.Reports()
		return &optArtifact{
			Design: d, Snap: pl.Snapshot(), PreStats: preStats, Lint: lintR, Equiv: equivR,
		}, nil

	case "route":
		_, _, err := rc.library()
		if err != nil {
			return nil, err
		}
		ov, err := rc.artifact("opt")
		if err != nil {
			return nil, err
		}
		oa := ov.(*optArtifact)
		pl := oa.Snap.Restore(oa.Design)
		rt, _, err := flow.RunRoute(pl, rc.t, rc.captable(), rc.workers, rc.prof)
		if err != nil {
			return nil, err
		}
		return &routeArtifact{Route: rt}, nil

	case "signoff":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		ov, err := rc.artifact("opt")
		if err != nil {
			return nil, err
		}
		rv, err := rc.artifact("route")
		if err != nil {
			return nil, err
		}
		gs, err := rc.gates()
		if err != nil {
			return nil, err
		}
		oa := ov.(*optArtifact)
		d := oa.Design.Clone()
		pl := oa.Snap.Restore(d)
		tb := rc.captable()
		areaBudget := pl.Die.Area() * 0.95
		ex := rcx.Extract(rv.(*routeArtifact).Route, tb, rc.t)
		postStats, err := flow.ClosePostRoute(d, pl, tb, ex, lib, areaBudget, oa.PreStats, rc.workers, rc.prof)
		if err != nil {
			return nil, err
		}
		rt, timing, _, err := flow.RunSignoff(d, pl, tb, rc.t, lib, areaBudget, postStats, rc.workers, rc.prof)
		if err != nil {
			return nil, err
		}
		if err := gs.Lint("post-route", d); err != nil {
			return nil, err
		}
		// The post-place reference is the opt artifact's design, read-only.
		if err := gs.Equiv("post-route vs post-place", oa.Design, d); err != nil {
			return nil, err
		}
		lintR, equivR := gs.Reports()
		return &signoffArtifact{
			Design: d, Snap: pl.Snapshot(), Route: rt, Timing: timing,
			Stats: postStats, Lint: lintR, Equiv: equivR,
		}, nil

	case "power":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		sv, err := rc.artifact("signoff")
		if err != nil {
			return nil, err
		}
		sga := sv.(*signoffArtifact)
		d := sga.Design
		pl := sga.Snap.Restore(d)
		tb := rc.captable()
		// The extraction of the final route is fresh at sign-off exit
		// (nothing re-optimized after the last route), so rebuilding the wire
		// function from it reproduces the monolith's finalWire on every net.
		ex := rcx.Extract(sga.Route, tb, rc.t)
		wire := flow.WireFromExtraction(ex, pl, tb)
		pow, clk, err := flow.RunPower(d, lib, wire, rc.cfg.Activities, sga.Timing, d.TargetClockPs, pl, tb, rc.prof)
		if err != nil {
			return nil, err
		}
		return &powerArtifact{Power: pow, Clock: clk}, nil

	case "report":
		_, lib, err := rc.library()
		if err != nil {
			return nil, err
		}
		// A fresh gate set re-runs the (process-cached) library verification
		// with the config's enforce semantics, as the monolith's gates stage
		// does, and supplies the LibCheck report.
		gs, err := rc.gates()
		if err != nil {
			return nil, err
		}
		sv, err := rc.artifact("synth")
		if err != nil {
			return nil, err
		}
		ov, err := rc.artifact("opt")
		if err != nil {
			return nil, err
		}
		gv, err := rc.artifact("signoff")
		if err != nil {
			return nil, err
		}
		pv, err := rc.artifact("power")
		if err != nil {
			return nil, err
		}
		sa, oa, sga, pa := sv.(*synthArtifact), ov.(*optArtifact), gv.(*signoffArtifact), pv.(*powerArtifact)
		d := sga.Design
		pl := sga.Snap.Restore(d)
		// Reports concatenate in the monolith's check order: post-synth,
		// post-place, post-route. All-nil stays nil so the wire payload's
		// omitempty matches a gates-off monolith run.
		var lintR []*lint.Report
		lintR = append(lintR, sa.Lint...)
		lintR = append(lintR, oa.Lint...)
		lintR = append(lintR, sga.Lint...)
		var equivR []*equiv.Report
		equivR = append(equivR, sa.Equiv...)
		equivR = append(equivR, oa.Equiv...)
		equivR = append(equivR, sga.Equiv...)
		res := flow.AssembleResult(rc.cfg, lib, flow.ReportInputs{
			Design: d, Placement: pl, Route: sga.Route, Timing: sga.Timing,
			ClockPs: d.TargetClockPs, Power: pa.Power, ClockTree: pa.Clock,
			OptStats: sga.Stats, SynthStats: sa.Stats,
			LintReports: lintR, EquivReports: equivR,
			LibCheck: gs.LibCheck(), StageTimes: rc.prof.Times(),
		})
		return flow.EncodeResult(res)
	}
	return nil, fmt.Errorf("stage: no executor for node %q", name)
}
