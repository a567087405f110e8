package tmi3d_test

// The benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment — workload,
// parameter sweep, 2D baseline and T-MI comparison — and reports the headline
// metric alongside wall-clock cost.
//
// Circuit scale defaults to 0.15 so `go test -bench=.` finishes in minutes;
// set TMI3D_SCALE=1.0 to rebuild the paper's full-size benchmarks.

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/core"
	"tmi3d/internal/equiv"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/place"
	"tmi3d/internal/route"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

var (
	studyMu sync.Mutex
	studies = map[float64]*core.Study{}
)

func benchScale() float64 {
	scale := 0.15
	if s := os.Getenv("TMI3D_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return scale
}

// benchStudy returns the shared study for the current scale. The cache is
// keyed by scale — a process-wide sync.Once would silently hand a study
// built for one scale to a benchmark expecting another (the old bug when
// TMI3D_SCALE changed between `go test -bench` invocations sharing a
// test binary, or when a bench pins its own scale).
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	scale := benchScale()
	studyMu.Lock()
	defer studyMu.Unlock()
	s, ok := studies[scale]
	if !ok {
		s = core.NewStudy(scale)
		studies[scale] = s
	}
	return s
}

func BenchmarkTable01CellRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Table1()
		if len(rows) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkTable02CellTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable03MetalStack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Table3()) != 4 {
			b.Fatal("bad table 3")
		}
	}
}

func BenchmarkTable04Summary45(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Summary(tech.N45)
		if err != nil {
			b.Fatal(err)
		}
		reportReduction(b, rows)
	}
}

func BenchmarkTable05PriorWork(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable06NodeSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = core.Table6()
	}
}

func BenchmarkTable07Summary7(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Summary(tech.N7)
		if err != nil {
			b.Fatal(err)
		}
		reportReduction(b, rows)
	}
}

func BenchmarkTable08PinCap(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable09Resistivity(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable10ITRS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = core.Table10()
	}
}

func BenchmarkTable11Cell7nm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Table11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable12Synthesis(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable13Detail45(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Detail(tech.N45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable14Detail7(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Detail(tech.N7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable15WLM(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table15(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable16WirePin(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable17MetalStack(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table17(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04ClockSweep(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		pts, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("bad fig 4")
		}
	}
}

func BenchmarkFig06WLMCurves(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10LayerUsage(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Activity(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11([]string{"AES"}); err != nil {
			b.Fatal(err)
		}
	}
}

// reportReduction attaches the headline metric (LDPC total power reduction)
// to the benchmark output.
func reportReduction(b *testing.B, rows []core.SummaryRow) {
	for _, r := range rows {
		if r.Circuit == "LDPC" {
			b.ReportMetric(-r.Total, "%power-reduction-LDPC")
		}
	}
}

// ---- Ablation benches: the design choices DESIGN.md calls out ----

// BenchmarkAblationFM quantifies what the Fiduccia–Mattheyses refinement
// buys over pure structural bisection, in placed wirelength.
func BenchmarkAblationFM(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("DES", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 30000)})
	if err != nil {
		b.Fatal(err)
	}
	tt := tech.New(tech.N45, tech.Mode2D)
	for i := 0; i < b.N; i++ {
		with, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		without, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.8, DisableFM: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(without.HPWL()/with.HPWL(), "hpwl-ratio-noFM/FM")
	}
}

// BenchmarkAblationDetour quantifies the congestion detour model's effect on
// reported wirelength for the congestion-limited LDPC.
func BenchmarkAblationDetour(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("LDPC", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 60000)})
	if err != nil {
		b.Fatal(err)
	}
	tt := tech.New(tech.N45, tech.Mode2D)
	pl, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.33})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		with, err := route.Run(pl, route.Options{Tech: tt})
		if err != nil {
			b.Fatal(err)
		}
		without, err := route.Run(pl, route.Options{Tech: tt, NoDetour: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.TotalLen/without.TotalLen, "wl-ratio-detour/ideal")
	}
}

// BenchmarkAblationTMIWLM re-measures the Table 15 effect as a single ratio.
func BenchmarkAblationTMIWLM(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table15()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.WithWLM && r.Circuit == "LDPC" {
				b.ReportMetric(r.DeltaP, "%power-without-TMI-WLM-LDPC")
			}
		}
	}
}

// ---- Parallel experiment engine benches ----

// benchMatrix is the worker-pool workload: the full 45nm iso-performance
// comparison matrix (5 circuits × {2D, T-MI}) on a fresh study, so every
// flow actually executes (no warm study cache; the process-wide library and
// netlist caches are warm for both variants alike).
func benchMatrix(b *testing.B, workers int) {
	var cfgs []flow.Config
	for _, name := range circuits.Names {
		cfgs = append(cfgs,
			flow.Config{Circuit: name, Node: tech.N45, Mode: tech.Mode2D},
			flow.Config{Circuit: name, Node: tech.N45, Mode: tech.ModeTMI})
	}
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(benchScale())
		s.Workers = workers
		rs, err := s.RunAll(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != len(cfgs) || s.FlowsRun() != len(cfgs) {
			b.Fatalf("%d results, %d flows executed, want %d", len(rs), s.FlowsRun(), len(cfgs))
		}
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkStudySerial is the serial baseline: one flow at a time.
func BenchmarkStudySerial(b *testing.B) { benchMatrix(b, 1) }

// BenchmarkStudyParallel fans the same matrix across GOMAXPROCS flow
// workers; compare ns/op against BenchmarkStudySerial for the wall-clock
// speedup (the repository benchmark tracks it as matrix45 latency_ms, make
// bench).
func BenchmarkStudyParallel(b *testing.B) { benchMatrix(b, runtime.GOMAXPROCS(0)) }

// BenchmarkEquiv measures the formal sign-off cost on the DES mapped netlist:
// AIG compilation, register correspondence, and structural proof of every
// compare point (a clean synthesis run needs zero SAT calls).
func BenchmarkEquiv(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("DES", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 60000)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := equiv.Check(d, sr.Design, equiv.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Equivalent() {
			b.Fatal(rep.Err())
		}
		b.ReportMetric(float64(rep.Points), "compare-points")
		b.ReportMetric(float64(rep.Structural), "structural")
	}
}

// BenchmarkSAT measures the CDCL core on the canonical UNSAT stress test:
// the pigeonhole principle with 8 pigeons and 7 holes, which has no short
// resolution proof and so exercises clause learning, VSIDS and restarts.
func BenchmarkSAT(b *testing.B) {
	const holes = 7
	var conflicts int64
	for i := 0; i < b.N; i++ {
		s := equiv.NewSolver()
		vars := make([][]int, holes+1)
		for p := range vars {
			vars[p] = make([]int, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
			cl := make([]equiv.SLit, holes)
			for h := range vars[p] {
				cl[h] = equiv.MkSLit(vars[p][h], false)
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					s.AddClause(equiv.MkSLit(vars[p1][h], true), equiv.MkSLit(vars[p2][h], true))
				}
			}
		}
		if s.Solve() {
			b.Fatal("pigeonhole must be UNSAT")
		}
		conflicts = s.Stats.Conflicts
	}
	b.ReportMetric(float64(conflicts), "conflicts")
}
