package stage

import (
	"container/list"
	"fmt"
	"os"
	"sync"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
)

// Cache events, accumulated in Counters and a run's RunStats.
const (
	eventMemHit  = "hit_mem"  // artifact served from the in-process cache
	eventDiskHit = "hit_disk" // artifact loaded and verified from the store
	eventMiss    = "miss"     // cached node not found in any tier
	eventExecute = "execute"  // node body ran (every miss, plus uncached nodes)
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

// memLimit is the default in-process artifact cache capacity (entries). Eight
// cached nodes per flow point means the default holds roughly eight sweep
// points of hot artifacts.
const memLimit = 64

// Engine executes flows through flow's stage graph with content-addressed
// reuse. Its Run is a drop-in for flow.Run — byte-identical results at any
// cache state, because it runs the same flow.Execution — backed by two
// tiers: an in-process LRU of artifact values and, when opened with a
// directory, a persistent castore shared across processes.
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

	// beforeExecute, when set, runs before every cached node's body. Only
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

// Store exposes the persistent tier (nil when in-process only): `tmi3d
// wireid` round-trips a probe entry through it, tests corrupt entries.
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

func (e *Engine) event(rc *runCtx, stage, ev string) {
	e.mu.Lock()
	c := e.counters[stage]
	if c == nil {
		c = &Counters{}
		e.counters[stage] = c
	}
	// rc.stats belongs to one run's goroutine; the lock guards only c.
	switch ev {
	case eventMemHit:
		c.MemHits++
		rc.stats.MemHits++
	case eventDiskHit:
		c.DiskHits++
		rc.stats.DiskHits++
	case eventMiss:
		c.Misses++
	case eventExecute:
		c.Executions++
		rc.stats.Executions++
	}
	e.mu.Unlock()
}

// Run executes the flow for cfg through the stage graph. The result is
// byte-identical to flow.Run(cfg) — same report payload, same final netlist
// and placement — whatever mix of cache tiers served the stages. Its wire
// fields may be shared with the memory tier: callers must not mutate them.
func (e *Engine) Run(cfg flow.Config) (*flow.Result, error) {
	res, _, err := e.RunStats(cfg)
	return res, err
}

// RunStats is Run plus this run's cache accounting.
func (e *Engine) RunStats(cfg flow.Config) (*flow.Result, RunStats, error) {
	rc := &runCtx{eng: e, ids: ids(cfg.Normalized())}
	res, err := flow.NewExecution(cfg, rc.resolve).Result(true)
	return res, rc.stats, err
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

// runCtx is one Run's cache view: the per-node artifact IDs and this run's
// accounting.
type runCtx struct {
	eng   *Engine
	ids   map[string]string
	stats RunStats
}

// resolve is the run's flow.Hook: uncached nodes always execute; cached nodes
// go through the tiers.
func (rc *runCtx) resolve(n *flow.Node, exec func() (any, error)) (any, error) {
	if !n.Cached {
		rc.eng.event(rc, n.Name, eventExecute)
		return exec()
	}
	return rc.eng.artifact(rc, n, exec)
}

// artifact serves one cached node: memory tier, then the store, then
// execution (with inflight deduplication across concurrent runs).
func (e *Engine) artifact(rc *runCtx, n *flow.Node, exec func() (any, error)) (any, error) {
	name, id := n.Name, rc.ids[n.Name]
	e.mu.Lock()
	if v, ok := e.memGet(id); ok {
		e.mu.Unlock()
		e.event(rc, name, eventMemHit)
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
		e.event(rc, name, eventMemHit)
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
	v, err := e.fill(rc, n, id, exec)
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
// the codec. Either way the result is what flow.Run hands the next stage:
// the codecs are exact inverses.
func (e *Engine) fill(rc *runCtx, n *flow.Node, id string, exec func() (any, error)) (any, error) {
	key := storeKey(n.Name, id)
	if e.store != nil {
		data, ok, err := e.store.Get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if v, derr := n.Decode(data); derr == nil {
				e.event(rc, n.Name, eventDiskHit)
				return v, nil
			}
			// Undecodable despite a verified checksum: an envelope format
			// skew. Recompute and overwrite below, like any miss.
		}
	}
	e.event(rc, n.Name, eventMiss)
	e.event(rc, n.Name, eventExecute)
	if e.beforeExecute != nil {
		e.beforeExecute(n.Name)
	}
	v, err := exec()
	if err != nil {
		return nil, err
	}
	if e.store != nil {
		data, err := n.Encode(v)
		if err != nil {
			return nil, err
		}
		if err := e.store.Put(key, data); err != nil {
			return nil, err
		}
	}
	return v, nil
}
