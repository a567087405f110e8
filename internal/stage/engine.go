package stage

import (
	"container/list"
	"fmt"
	"os"
	"sync"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
)

// Cache events, accumulated in Counters.
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

// memLimit is the in-process artifact cache capacity (entries). Eight cached
// nodes per flow point means it holds roughly eight sweep points of hot
// artifacts.
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
	inflight map[string]*call
	counters map[string]*Counters

	// execHook, when set, runs every node body the engine executes, through
	// the body's exec. Only tests set it (export_test.go), to fail a body or
	// change its value on demand.
	execHook flow.Hook
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

func (e *Engine) event(stage, ev string) {
	e.mu.Lock()
	c := e.counters[stage]
	if c == nil {
		c = &Counters{}
		e.counters[stage] = c
	}
	switch ev {
	case eventMemHit:
		c.MemHits++
	case eventDiskHit:
		c.DiskHits++
	case eventMiss:
		c.Misses++
	case eventExecute:
		c.Executions++
	}
	e.mu.Unlock()
}

// Run executes the flow for cfg through the stage graph. The result is
// byte-identical to flow.Run(cfg) — same report payload, and an
// Implementation that returns the same final netlist and placement —
// whatever mix of cache tiers served the stages. A run whose report a tier
// served reads the signoff artifact only when Implementation is first
// called, through the same tiers, so a caller that never asks reads one
// artifact. Its wire fields may be shared with the memory tier: callers must
// not mutate them.
//
// The run's writer persists each artifact the run executed, once the gates
// checking it have passed, while the run goes on to the next stage; an
// artifact whose gates failed leaves the memory tier instead, and the run
// fails with the gate's error, as flow.Run does. Run returns only after the
// writer has drained — on success, on error and on panic — so the run's
// artifacts are durable when it returns, and a failed encode or store write
// fails the run with that error.
func (e *Engine) Run(cfg flow.Config) (res *flow.Result, err error) {
	idByName := ids(cfg.Normalized())
	w := &writer{e: e}
	defer func() {
		if werr := w.drain(); werr != nil {
			res, err = nil, werr
		}
	}()
	// The run's flow.Hook: uncached nodes always execute; cached nodes go
	// through the tiers.
	return flow.NewExecution(cfg, func(n *flow.Node, exec func() (any, error)) (any, error) {
		if h := e.execHook; h != nil {
			body := exec
			exec = func() (any, error) { return h(n, body) }
		}
		if !n.Cached {
			e.event(n.Name, eventExecute)
			return exec()
		}
		return e.artifact(n, idByName[n.Name], exec, w)
	}).Result(true)
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

// memPut inserts an artifact, evicting the coldest entries past memLimit.
// Caller holds mu.
func (e *Engine) memPut(id string, v any) {
	if el, ok := e.mem[id]; ok {
		e.lru.MoveToFront(el)
		el.Value.(*memEntry).v = v
		return
	}
	e.mem[id] = e.lru.PushFront(&memEntry{id: id, v: v})
	for e.lru.Len() > memLimit {
		el := e.lru.Back()
		e.lru.Remove(el)
		delete(e.mem, el.Value.(*memEntry).id)
	}
}

// artifact serves one cached node: memory tier, then the store, then
// execution (with inflight deduplication across concurrent runs). An
// executed artifact goes to the memory tier and to waiting runs as soon as
// its body returns, and to w to be stored.
func (e *Engine) artifact(n *flow.Node, id string, exec func() (any, error), w *writer) (any, error) {
	name := n.Name
	e.mu.Lock()
	if v, ok := e.memGet(id); ok {
		e.mu.Unlock()
		e.event(name, eventMemHit)
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
		e.event(name, eventMemHit)
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
	v, executed, err := e.fill(n, id, exec)
	done = true
	c.v, c.err = v, err
	e.mu.Lock()
	delete(e.inflight, id)
	if err == nil {
		e.memPut(id, v)
	}
	e.mu.Unlock()
	c.wg.Done()
	if err == nil && executed {
		err = w.put(n, id, v)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// fill loads a node's artifact from the store or executes its body,
// reporting which. A store hit returns the decoded envelope; a miss returns
// the value the body built, which the caller hands to the run's writer, so
// an engine without a store never touches the codec. Either way the result
// is what flow.Run hands the next stage: the codecs are exact inverses.
func (e *Engine) fill(n *flow.Node, id string, exec func() (any, error)) (any, bool, error) {
	if e.store != nil {
		data, ok, err := e.store.Get(storeKey(n.Name, id))
		if err != nil {
			return nil, false, err
		}
		if ok {
			if v, derr := n.Decode(data); derr == nil {
				e.event(n.Name, eventDiskHit)
				return v, false, nil
			}
			// Undecodable despite a verified checksum: bytes damaged before
			// they were stored, or a format change without its idVersion
			// bump. Recompute and overwrite, like any miss.
		}
	}
	e.event(n.Name, eventMiss)
	e.event(n.Name, eventExecute)
	v, err := exec()
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// persist encodes an executed artifact and stores it, if the engine has a
// store. An artifact that is not stored leaves the memory tier as well, so
// the next run that needs it executes and stores it again rather than serve
// a value no store holds.
func (e *Engine) persist(n *flow.Node, id string, v any) error {
	if e.store == nil {
		return nil
	}
	data, err := n.Encode(v)
	if err == nil {
		err = e.store.Put(storeKey(n.Name, id), data)
	}
	if err != nil {
		e.forget(id)
	}
	return err
}

// forget drops an artifact from the memory tier.
func (e *Engine) forget(id string) {
	e.mu.Lock()
	if el, ok := e.mem[id]; ok {
		e.lru.Remove(el)
		delete(e.mem, id)
	}
	e.mu.Unlock()
}

// writer persists the artifacts one Run executes. A single goroutine,
// started on the run's first miss, encodes and stores them in the order the
// run executed them (node order), so at most one encode buffer is alive at a
// time, while the run executes the next stage. It first waits for the gates
// still checking an artifact (flow.Node.Wait): an artifact whose gates
// failed leaves the memory tier and is never stored, with or without a
// store. After a failed gate or write it stores none of the run's later
// artifacts and drops them from the memory tier, so the tiers hold what they
// held when the run stopped at the failure. Run drains it before returning.
// A write asked for after that — Result.Implementation executing signoff's
// cone — is made in the caller before the call returns.
type writer struct {
	e       *Engine
	queue   chan pendingWrite // nil until the run's first miss
	done    chan struct{}     // closed when the goroutine has written the queue
	drained bool              // Run has returned: persist in the caller
	err     error             // the goroutine's first encode or store error
	refused bool              // the gates of one of the run's artifacts failed
}

type pendingWrite struct {
	n  *flow.Node
	id string
	v  any
}

// put persists an executed artifact: queued while the run is going, at once
// after it returned. The failure of the artifact's gates is not a write
// error: the run reports it itself.
func (w *writer) put(n *flow.Node, id string, v any) error {
	if w.drained {
		if n.Wait(v) != nil {
			w.e.forget(id)
			return nil
		}
		return w.e.persist(n, id, v)
	}
	if w.queue == nil {
		// A run executes each node at most once, so the queue never fills.
		w.queue = make(chan pendingWrite, len(Nodes))
		w.done = make(chan struct{})
		go w.loop(w.queue)
	}
	w.queue <- pendingWrite{n, id, v}
	return nil
}

func (w *writer) loop(queue <-chan pendingWrite) {
	defer close(w.done)
	for p := range queue {
		if w.err == nil && !w.refused {
			w.refused = p.n.Wait(p.v) != nil
		}
		if w.err != nil || w.refused {
			w.e.forget(p.id)
			continue
		}
		w.err = w.e.persist(p.n, p.id, p.v)
	}
}

// drain waits until every queued artifact is stored and returns the first
// write error; later writes are synchronous.
func (w *writer) drain() error {
	w.drained = true
	if w.queue == nil {
		return nil
	}
	close(w.queue)
	<-w.done
	return w.err
}
