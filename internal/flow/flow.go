// Package flow runs the paper's complete design and analysis pipeline
// (Fig 1) for one (circuit, node, mode, clock) point: library selection,
// synthesis under the mode's wire load model, placement, pre-route
// optimization, global routing, RC extraction, post-route optimization with
// power recovery, and sign-off timing/power analysis.
//
// Iso-performance comparison (Section 1) falls out of running the same
// configuration in 2D and T-MI modes at the same target clock and comparing
// the power reports.
package flow

import (
	"math"
	"strconv"
	"sync"

	"tmi3d/internal/captable"
	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

// clockCalibration scales the paper's target clock periods per circuit and
// node. Our characterized cells are slower than the commercial Nangate
// library and the generated netlists are structurally deeper than their
// synthesized counterparts (e.g. the composite-field AES S-box), so the
// paper's absolute targets would be infeasible at any drive strength. The
// factors are set so each calibrated target sits at ~75% of the relaxed
// critical path — "tight but closable", the same timing pressure the paper
// reports — and every iso-performance comparison uses the same calibrated
// target for its 2D and T-MI runs, preserving all relative results.
// Index 0 = 45nm, 1 = 7nm.
var clockCalibration = map[string][2]float64{
	"FPU":  {3.4, 3.4},
	"AES":  {7.5, 10.9},
	"LDPC": {1.6, 2.3},
	"DES":  {2.7, 4.3},
	"M256": {2.5, 3.0},
}

// clockCalibrationFactor returns the clock scaling applied for a circuit at
// a node (1.0 for unknown circuits).
func clockCalibrationFactor(circuit string, node tech.Node) float64 {
	k, ok := clockCalibration[circuit]
	if !ok {
		return 1.0
	}
	if node == tech.N7 {
		return k[1]
	}
	return k[0]
}

// Config selects one flow run. The JSON encoding round-trips every field and
// is accepted verbatim by the serving layer's POST /v1/ppa endpoint.
type Config struct {
	Circuit string    `json:"circuit"`
	Scale   float64   `json:"scale"`
	Node    tech.Node `json:"node"`
	Mode    tech.Mode `json:"mode"`
	// ClockPs overrides the Table 12 target clock when non-zero. The
	// override is applied at the pre-route optimization stage: synthesis and
	// placement always run at the base (Table 12) clock, so every point of a
	// clock sweep shares its generate/synth/place artifacts — the reuse the
	// staged engine (internal/stage) exploits.
	ClockPs float64 `json:"clock_ps,omitempty"`
	// Util overrides the default placement utilization when non-zero.
	Util float64 `json:"util,omitempty"`
	// PinCapScale scales library input pin capacitance (Table 8); 0 = 1.0.
	PinCapScale float64 `json:"pin_cap_scale,omitempty"`
	// ResistivityScale adjusts interconnect resistivity per layer class
	// (Table 9).
	ResistivityScale map[tech.LayerClass]float64 `json:"resistivity_scale,omitempty"`
	// Use2DWLM synthesizes a 3D design with the 2D wire load model — the
	// "-n" rows of Table 15.
	Use2DWLM bool `json:"use_2d_wlm,omitempty"`
	// Activities overrides the switching activity assertions (Fig 11).
	Activities power.Activities `json:"activities"`
	Seed       uint64           `json:"seed,omitempty"`
	// Lint controls the design-integrity gates run after synthesis,
	// placement, and post-route optimization. The zero value enforces:
	// any Error-severity diagnostic aborts the flow (the Encounter-style
	// sanity checks of the paper's flow). GateWarnOnly records reports
	// without failing; GateOff skips the sweeps entirely.
	Lint lint.GateMode `json:"lint,omitempty"`
	// Equiv controls the formal sign-off gates (the Conformal/Formality box
	// of Fig 1): logical equivalence checks after every netlist-transforming
	// stage — post-synth vs the generated source, post-place vs post-synth,
	// post-route vs post-place — plus a once-per-process switch-level check
	// of the folded cell library. The zero value enforces: any disproved
	// compare point aborts the flow. GateWarnOnly records reports without
	// failing; GateOff skips the checks.
	Equiv lint.GateMode `json:"equiv,omitempty"`
	// Workers is ignored: a flow runs its stages one after another, with
	// only its gates beside them, and the cores are otherwise shared between
	// flows (core.Study.Workers, serve's job pool).
	//
	// Deprecated: kept only because the benchmark harness still sets it;
	// the next benchmark change removes it.
	Workers int `json:"-"`
}

// Result is one completed flow run.
//
// The JSON encoding is the wire format of the serving layer: it is
// deterministic (a decoded Result re-encodes to the same bytes, maps render
// with sorted keys) and carries everything a PPA query needs. The final
// implementation and the observational StageTimes are excluded: the netlist
// and placement are gigabyte-class at scale 1 and exportable via Verilog/DEF
// instead, and wall-clock timing would break the byte-identity contract
// between a cached response and a fresh run.
type Result struct {
	Config Config `json:"config"`

	Footprint  float64 `json:"footprint_um2"` // µm²
	DieW       float64 `json:"die_w_um"`
	DieH       float64 `json:"die_h_um"`
	NumCells   int     `json:"num_cells"`
	NumBuffers int     `json:"num_buffers"`
	Util       float64 `json:"util"`
	CellArea   float64 `json:"cell_area_um2"` // µm²

	TotalWL   float64                   `json:"total_wl_um"` // µm
	WLByClass [route.NumClasses]float64 `json:"wl_by_class_um"`
	Overflow  int                       `json:"overflow"`
	AvgFanout float64                   `json:"avg_fanout"`
	WNS       float64                   `json:"wns_ps"` // ps
	ClockPs   float64                   `json:"clock_ps"`
	// ClockWL and ClockBuffers describe the synthesized clock tree.
	ClockWL      float64       `json:"clock_wl_um"`
	ClockBuffers int           `json:"clock_buffers"`
	Power        *power.Report `json:"power"`
	OptStats     *opt.Stats    `json:"opt_stats,omitempty"`
	SynthStats   netlist.Stats `json:"synth_stats"`

	// WLSamples maps fanout → routed net lengths (µm), the raw data of
	// Fig 6.
	WLSamples FanoutSamples `json:"wl_samples,omitempty"`

	// Implementation returns the final netlist and its placement, for
	// artifact export (Verilog, DEF) and further analysis; both are the
	// caller's to keep or edit. A run that resolved the sign-off artifact
	// holds its netlist and placement snapshot; a run served its report
	// from a cache keeps the cache reachable and reads sign-off through it
	// on the first call. Repeated calls return the same values. Nil on a
	// Result that dropped its implementation (core.Study's cache) or was
	// decoded.
	Implementation func() (*netlist.Design, *place.Placement, error) `json:"-"`

	// StageTimes is the wall-clock cost of each flow stage in pipeline
	// order — the profile that shows where a parallel experiment run still
	// serializes. Timing is observational only: it never feeds back into
	// the flow, so results stay deterministic.
	StageTimes []StageTime `json:"-"`

	// LintReports holds the per-stage design-integrity reports (empty when
	// Config.Lint is GateOff).
	LintReports []*lint.Report `json:"lint_reports,omitempty"`
	// EquivReports holds the per-stage equivalence-check reports (empty when
	// Config.Equiv is GateOff).
	EquivReports []*equiv.Report `json:"equiv_reports,omitempty"`
	// LibCheck is the switch-level library verification result (nil when
	// Config.Equiv is GateOff).
	LibCheck *equiv.LibReport `json:"lib_check,omitempty"`
}

// circuit generation is deterministic and expensive at scale 1; cache it.
// Each key owns a sync.OnceValues function, so concurrent flows generating
// *different* circuits proceed in parallel, while callers of the same key
// block on one generation — the mutex only guards the map, never the work.
// The cached netlist is shared: GenerateDesign hands each flow a clone.
var (
	genMu    sync.Mutex
	genCache = map[string]func() (*netlist.Design, error){}
)

// libraryCheck is the switch-level verification of the folded library. Its
// transistor networks are mode- and node-independent (liberty scaling only
// touches electrical data), so one check covers every flow run in the
// process.
var libraryCheck = sync.OnceValue(equiv.CheckLibrary)

// LibraryCheck returns the cached switch-level library verification.
func LibraryCheck() *equiv.LibReport { return libraryCheck() }

func generated(name string, scale float64) (*netlist.Design, error) {
	key := name + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
	genMu.Lock()
	get, ok := genCache[key]
	if !ok {
		get = sync.OnceValues(func() (*netlist.Design, error) { return circuits.Generate(name, scale) })
		genCache[key] = get
	}
	genMu.Unlock()
	return get()
}

// Run executes the full flow: the Nodes stage graph, with no cache.
func Run(cfg Config) (*Result, error) {
	return NewExecution(cfg, nil).Result(false)
}

// Synthesize runs the flow's front end for cfg: its library, generate, wlm
// and synth stages, with the gates cfg asks for. It returns the library, the
// generated source netlist (carrying the calibrated Table 12 clock) and the
// mapped netlist, both the caller's to keep or edit.
func Synthesize(cfg Config) (lib *liberty.Library, src, mapped *netlist.Design, err error) {
	// The execution drops library and generate after their last reader; the
	// hook keeps them for the caller.
	vals := map[string]any{}
	x := NewExecution(cfg, func(n *Node, exec func() (any, error)) (any, error) {
		v, err := exec()
		vals[n.Name] = v
		return v, err
	})
	var v any
	if err := x.joined(func() (err error) {
		v, err = x.resolve("synth")
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	return vals["library"].(*libraryValue).lib, vals["generate"].(*netlist.Design), v.(*synthArtifact).Design, nil
}

// estimateArea sums X1-mapped cell areas of the generic netlist: the area
// the wire load model is sized from before synthesis.
func estimateArea(d *netlist.Design, lib *liberty.Library) float64 {
	area := 0.0
	for i := range d.Instances {
		if c := lib.Cell(d.Instances[i].Func + "_X1"); c != nil {
			area += c.Area
		}
	}
	return area
}

// hpwlWire estimates net parasitics from placement bounding boxes using the
// statistical local/intermediate unit mix.
func hpwlWire(pl *place.Placement, tb *captable.Table) func(int) sta.WireRC {
	rl, cl, _ := tb.ClassAverage(tech.ClassLocal)
	ri, ci, _ := tb.ClassAverage(tech.ClassIntermediate)
	ur := 0.7*rl + 0.3*ri
	uc := 0.7*cl + 0.3*ci
	return func(ni int) sta.WireRC {
		l := pl.NetHPWL(ni)
		return sta.WireRC{R: ur * l, C: uc * l}
	}
}

// extractedWire serves extracted parasitics, falling back to bounding-box
// estimates for nets created after extraction (optimizer buffers) and for
// nets the optimizer has since modified (their extraction is stale — the
// moved sinks changed the net's geometry).
type wireSource struct {
	fn    func(int) sta.WireRC
	dirty map[int]bool
}

func (ws *wireSource) markDirty(ni int) { ws.dirty[ni] = true }

func extractedWire(ex *rcx.Extraction, pl *place.Placement, tb *captable.Table) *wireSource {
	est := hpwlWire(pl, tb)
	ws := &wireSource{dirty: map[int]bool{}}
	ws.fn = func(ni int) sta.WireRC {
		if ni < len(ex.Nets) && !ws.dirty[ni] {
			rc := ex.Nets[ni]
			return sta.WireRC{R: rc.R, C: rc.C}
		}
		return est(ni)
	}
	return ws
}

// Compare is the iso-performance 2D-vs-3D comparison of two results; values
// are percentage differences of b over a (negative = reduction).
type Compare struct {
	Footprint float64 `json:"footprint_pct"`
	WL        float64 `json:"wl_pct"`
	Total     float64 `json:"total_pct"`
	Cell      float64 `json:"cell_pct"`
	Net       float64 `json:"net_pct"`
	Leakage   float64 `json:"leakage_pct"`
	Buffers   float64 `json:"buffers_pct"`
}

// Diff computes percentage deltas of b versus a. A zero baseline has no
// defined percentage delta: those entries are NaN (rendered as "n/a" by
// report.Pct), never a fabricated 0%. A zero-over-zero comparison is the one
// exception — nothing changed, so the delta is 0.
func Diff(a, b *Result) Compare {
	pct := func(x, y float64) float64 {
		if x == 0 {
			if y == 0 {
				return 0
			}
			return math.NaN()
		}
		return (y - x) / x * 100
	}
	return Compare{
		Footprint: pct(a.Footprint, b.Footprint),
		WL:        pct(a.TotalWL, b.TotalWL),
		Total:     pct(a.Power.Total, b.Power.Total),
		Cell:      pct(a.Power.Cell, b.Power.Cell),
		Net:       pct(a.Power.Net, b.Power.Net),
		Leakage:   pct(a.Power.Leakage, b.Power.Leakage),
		Buffers:   pct(float64(a.NumBuffers), float64(b.NumBuffers)),
	}
}
