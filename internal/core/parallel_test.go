package core

// Tests for the parallel experiment engine: cache-key precision, stampede
// (singleflight) dedup, deterministic fan-out, and the serial/parallel
// bit-identity contract.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/report"
	"tmi3d/internal/tech"
)

// stubStudy returns a study whose flow executor is replaced by a counting
// stub, so cache semantics are testable without multi-second flows.
func stubStudy(runner func(flow.Config) (*flow.Result, error)) (*Study, *int64) {
	s := NewStudy(0.1)
	var calls int64
	s.Runner = func(cfg flow.Config) (*flow.Result, error) {
		atomic.AddInt64(&calls, 1)
		return runner(cfg)
	}
	return s, &calls
}

// Regression for the %.0f cache-key collision: two sweep points 0.4 ps
// apart must execute as two distinct flows and return distinct results.
func TestRunCacheKeyCollision(t *testing.T) {
	s, calls := stubStudy(func(cfg flow.Config) (*flow.Result, error) {
		return &flow.Result{Config: cfg}, nil
	})
	a, err := s.run(flow.Config{Circuit: "AES", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1000.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.run(flow.Config{Circuit: "AES", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1000.4})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("configs 0.4 ps apart returned the same cached result")
	}
	if a.Config.ClockPs == b.Config.ClockPs {
		t.Fatalf("wrong layout served: both results claim ClockPs %v", a.Config.ClockPs)
	}
	if n := atomic.LoadInt64(calls); n != 2 {
		t.Fatalf("flow executed %d times, want 2", n)
	}
	// Identical config: cache hit, no third execution.
	c, err := s.run(flow.Config{Circuit: "AES", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1000.0})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("exact repeat did not hit the cache")
	}
	if n := atomic.LoadInt64(calls); n != 2 {
		t.Errorf("flow executed %d times after repeat, want 2", n)
	}
}

// Regression for the check-then-run stampede: N concurrent callers of one
// config must trigger exactly one flow execution, and every caller gets the
// same result.
func TestRunStampedeSingleflight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce sync.Once
	s, calls := stubStudy(func(cfg flow.Config) (*flow.Result, error) {
		startOnce.Do(func() { close(started) })
		<-release
		return &flow.Result{Config: cfg}, nil
	})

	const goroutines = 32
	results := make([]*flow.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = s.run(flow.Config{Circuit: "LDPC", Node: tech.N45, Mode: tech.ModeTMI})
		}(g)
	}
	<-started
	// Give latecomers time to reach the lookup while the flow is inflight —
	// under the old check-then-run they would all start their own flow.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := atomic.LoadInt64(calls); n != 1 {
		t.Fatalf("flow executed %d times for one config, want exactly 1", n)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("goroutine %d received a different result", g)
		}
	}
}

// The study caches a flow's report, not its implementation: the first
// caller, a concurrent waiter and a later cache hit all get one copy with
// no Implementation, while the wire fields survive intact.
func TestCachedResultDropsLayout(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, calls := stubStudy(func(cfg flow.Config) (*flow.Result, error) {
		close(started)
		<-release
		return &flow.Result{
			Config:  cfg,
			TotalWL: 42,
			Implementation: func() (*netlist.Design, *place.Placement, error) {
				return &netlist.Design{Name: cfg.Circuit}, &place.Placement{}, nil
			},
		}, nil
	})
	cfg := flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.ModeTMI}
	var first, waiter *flow.Result
	var wg sync.WaitGroup
	run := func(dst **flow.Result) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.run(cfg)
			if err != nil {
				t.Error(err)
			}
			*dst = r
		}()
	}
	run(&first)
	<-started
	run(&waiter)
	// Give the second caller time to join the inflight run, as in the
	// stampede test; if it arrives late it is a cache hit instead, and the
	// checks below hold either way.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	hit, err := s.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(calls); n != 1 {
		t.Fatalf("flow executed %d times, want 1", n)
	}
	for name, r := range map[string]*flow.Result{"first caller": first, "waiter": waiter, "cache hit": hit} {
		if r != hit {
			t.Errorf("%s got a different result pointer", name)
		}
		if r.Implementation != nil {
			t.Errorf("%s: cached result keeps its Implementation", name)
		}
		if r.TotalWL != 42 || r.Config.Circuit != "FPU" {
			t.Errorf("%s: report fields lost: TotalWL %v, circuit %q", name, r.TotalWL, r.Config.Circuit)
		}
	}
}

// Errors reach every concurrent waiter but are not cached: the next call
// retries.
func TestRunErrorNotCached(t *testing.T) {
	fail := errors.New("transient")
	var attempt int64
	s := NewStudy(0.1)
	s.Runner = func(cfg flow.Config) (*flow.Result, error) {
		if atomic.AddInt64(&attempt, 1) == 1 {
			return nil, fail
		}
		return &flow.Result{Config: cfg}, nil
	}
	cfg := flow.Config{Circuit: "DES", Node: tech.N7, Mode: tech.Mode2D}
	if _, err := s.run(cfg); !errors.Is(err, fail) {
		t.Fatalf("first call: %v, want %v", err, fail)
	}
	r, err := s.run(cfg)
	if err != nil || r == nil {
		t.Fatalf("retry after error: %v", err)
	}
}

// RunAll preserves input order, deduplicates repeated configs, and returns
// identical results at any worker count.
func TestRunAllDeterministicOrder(t *testing.T) {
	mk := func(workers int) ([]*flow.Result, int64) {
		s, calls := stubStudy(func(cfg flow.Config) (*flow.Result, error) {
			// Stagger by clock so completion order != input order.
			time.Sleep(time.Duration(int(cfg.ClockPs)%7) * time.Millisecond)
			return &flow.Result{Config: cfg}, nil
		})
		s.Workers = workers
		var cfgs []flow.Config
		for i := 0; i < 12; i++ {
			cfgs = append(cfgs, flow.Config{Circuit: "AES", Node: tech.N45, ClockPs: float64(1000 + i%6)})
		}
		rs, err := s.RunAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return rs, atomic.LoadInt64(calls)
	}
	serial, nSerial := mk(1)
	parallel, nParallel := mk(8)
	if nSerial != 6 || nParallel != 6 {
		t.Errorf("executions serial=%d parallel=%d, want 6 each (dedup)", nSerial, nParallel)
	}
	for i := range serial {
		if serial[i].Config.ClockPs != parallel[i].Config.ClockPs {
			t.Fatalf("result %d differs between -j 1 and -j 8", i)
		}
		if serial[i].Config.ClockPs != float64(1000+i%6) {
			t.Fatalf("result %d out of input order", i)
		}
	}
}

// RunAll reports the error of the lowest-index failing config regardless of
// scheduling, so parallel failures are reproducible.
func TestRunAllDeterministicError(t *testing.T) {
	s, _ := stubStudy(func(cfg flow.Config) (*flow.Result, error) {
		if cfg.ClockPs == 1002 || cfg.ClockPs == 1005 {
			return nil, fmt.Errorf("boom at %v", cfg.ClockPs)
		}
		return &flow.Result{Config: cfg}, nil
	})
	s.Workers = 8
	var cfgs []flow.Config
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, flow.Config{Circuit: "FPU", Node: tech.N45, ClockPs: float64(1000 + i)})
	}
	for trial := 0; trial < 4; trial++ {
		_, err := s.RunAll(cfgs)
		if err == nil || !strings.Contains(err.Error(), "boom at 1002") {
			t.Fatalf("trial %d: error %v, want the lowest-index failure (1002)", trial, err)
		}
	}
}

// The serial/parallel bit-identity contract on real flows: the same pair run
// through a -j 1 study and a -j 4 study must produce identical numbers.
func TestParallelMatchesSerialRealFlows(t *testing.T) {
	cfgs := []flow.Config{
		{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D},
		{Circuit: "FPU", Node: tech.N45, Mode: tech.ModeTMI},
	}
	serial := NewStudy(0.1)
	serial.Workers = 1
	parallel := NewStudy(0.1)
	parallel.Workers = 4

	rsSerial, err := serial.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rsParallel, err := parallel.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		a, b := rsSerial[i], rsParallel[i]
		if a.Power.Total != b.Power.Total || a.TotalWL != b.TotalWL ||
			a.WNS != b.WNS || a.Footprint != b.Footprint ||
			a.NumCells != b.NumCells || a.NumBuffers != b.NumBuffers {
			t.Errorf("config %d: serial and parallel results differ:\n"+
				"serial   power=%v wl=%v wns=%v fp=%v cells=%d buf=%d\n"+
				"parallel power=%v wl=%v wns=%v fp=%v cells=%d buf=%d",
				i, a.Power.Total, a.TotalWL, a.WNS, a.Footprint, a.NumCells, a.NumBuffers,
				b.Power.Total, b.TotalWL, b.WNS, b.Footprint, b.NumCells, b.NumBuffers)
		}
	}
	if serial.FlowsRun() != 2 || parallel.FlowsRun() != 2 {
		t.Errorf("flows executed serial=%d parallel=%d, want 2 each", serial.FlowsRun(), parallel.FlowsRun())
	}
	if !strings.Contains(serial.StageReport(), "synth") {
		t.Error("stage report missing synth stage")
	}
}

// pct must not fabricate a 0% delta over a zero baseline; renderers print
// "n/a" for the undefined case.
func TestPctZeroBaseline(t *testing.T) {
	if !math.IsNaN(pct(0, 5)) {
		t.Errorf("pct(0, 5) = %v, want NaN", pct(0, 5))
	}
	if pct(0, 0) != 0 {
		t.Errorf("pct(0, 0) = %v, want 0", pct(0, 0))
	}
	if pct(10, 5) != -50 {
		t.Errorf("pct(10, 5) = %v, want -50", pct(10, 5))
	}
	if got := report.Pct(pct(0, 5)); got != "n/a" {
		t.Errorf("rendered zero-baseline delta %q, want n/a", got)
	}
	if got := report.F(math.NaN(), 2); got != "n/a" {
		t.Errorf("report.F(NaN) = %q, want n/a", got)
	}
}
