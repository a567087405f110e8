package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tmi3d/internal/geom"
	"tmi3d/internal/tech"
)

// refFrom builds the oracle core over f's region: the same cell rows, sides,
// areas and anchors, with the side counts and pin lists recounted from the
// rows.
func refFrom(f *fmCore) *refCore {
	r := &refCore{
		nets:   make([]refNet, len(f.nets)),
		cells:  make([][]int32, len(f.cells)),
		side:   make([]bool, len(f.cells)),
		area:   make([]float64, len(f.cells)),
		gain:   make([]int, len(f.cells)),
		next:   make([]int32, len(f.cells)),
		prev:   make([]int32, len(f.cells)),
		inList: make([]bool, len(f.cells)),
		locked: make([]bool, len(f.cells)),
	}
	for li := range f.nets {
		r.nets[li].anc = f.nets[li].anc
	}
	for c := range f.cells {
		r.cells[c] = slices.Clone(f.cellNets[f.netStart[c]:f.netStart[c+1]])
		r.side[c] = f.cells[c].side
		r.area[c] = f.cells[c].area
		if !r.side[c] {
			r.areaA += r.area[c]
		}
		for _, li := range r.cells[c] {
			r.nets[li].cnt[boolIdx(r.side[c])]++
			r.nets[li].pins = append(r.nets[li].pins, int32(c))
		}
	}
	return r
}

// matchOracle runs passes on f and on the oracle built from it until one
// improves nothing (at most six), and requires the same improvement and sides
// after every pass, and after a pass that improves (the next pass reads it)
// an A-side area within f's slack of the oracle's, equal while the slack is
// 0. Unless exactSums (areas whose sums round nowhere, so
// the two areas are equal to the bit), it stops, reporting true, once f is
// unsure: a balance check came within rounding of a limit, where the two may
// decide differently.
func matchOracle(t *testing.T, name string, f *fmCore, lo, hi float64, exactSums bool) (unsure bool) {
	t.Helper()
	r := refFrom(f)
	for pass := 0; pass < 6; pass++ {
		got, want := f.runPass(lo, hi, false), r.runPass(lo, hi)
		if f.unsure && !exactSums {
			return true
		}
		if got != want {
			t.Fatalf("%s pass %d: improvement %d, oracle %d", name, pass, got, want)
		}
		for c := range f.cells {
			if f.cells[c].side != r.side[c] {
				t.Fatalf("%s pass %d: cell %d on side %v, oracle %v", name, pass, c, f.cells[c].side, r.side[c])
			}
		}
		if diff := math.Abs(f.areaA - r.areaA); got > 0 && diff > f.slack || exactSums && diff != 0 {
			t.Fatalf("%s pass %d: A-side area %v, oracle %v, slack %v", name, pass, f.areaA, r.areaA, f.slack)
		}
		for li := range f.nets {
			if n := &f.nets[li]; n.cnt != [2]int32{int32(r.nets[li].cnt[0]), int32(r.nets[li].cnt[1])} {
				t.Fatalf("%s pass %d: net %d counts %v, oracle %v", name, pass, li, n.cnt, r.nets[li].cnt)
			}
		}
		if got <= 0 {
			return false
		}
	}
	return false
}

// randomCore loads f with a seeded random hypergraph: nets of one to six pin
// entries, some with a cell twice, anchors on neither, one or both sides,
// and cells with no net. Each area is one to eight sites (or every area
// one site), and the balance limits, tight, loose or fmRefine's, sit on the
// site grid, so a balance check can land on a limit exactly. With a site of
// 1 every A-side sum is exact.
func randomCore(rng *rand.Rand, f *fmCore, site float64) (lo, hi float64) {
	numCells := 1 + rng.Intn(120)
	numNets := rng.Intn(2 * numCells)
	rows := make([][]int32, numCells)
	anc := make([][2]bool, numNets)
	for li := range numNets {
		k := 1 + rng.Intn(6)
		for range k {
			c := rng.Intn(numCells)
			rows[c] = append(rows[c], int32(li))
			if rng.Intn(12) == 0 { // a duplicate pin
				rows[c] = append(rows[c], int32(li))
			}
		}
		switch rng.Intn(6) {
		case 0:
			anc[li] = [2]bool{true, false}
		case 1:
			anc[li] = [2]bool{false, true}
		case 2:
			anc[li] = [2]bool{true, true}
		}
	}
	equal := rng.Intn(3) == 0
	f.reset(numCells)
	sites := 0
	for c := range numCells {
		f.netStart[c] = int32(len(f.cellNets))
		f.cellNets = append(f.cellNets, rows[c]...)
		k := 1
		if !equal {
			k = 1 + rng.Intn(8)
		}
		f.cells[c] = fmCell{area: site * float64(k), side: rng.Intn(2) == 0}
		sites += k
	}
	f.netStart[numCells] = int32(len(f.cellNets))
	for li := range numNets {
		f.nets = append(f.nets, fmNet{anc: anc[li]})
	}
	f.link()
	window := [][2]float64{{0.48, 0.52}, {0.2, 0.8}, {0.42, 0.58}}[rng.Intn(3)]
	onGrid := func(frac float64) float64 { return site * math.Round(frac*float64(sites)) }
	return onGrid(window[0]), onGrid(window[1])
}

// The early-exit core leaves the oracle's sides and improvement after every
// pass, on random hypergraphs and on every region of the five circuits; its
// A-side area is the oracle's, bit for bit on the random graphs' integer
// areas and within slack on real widths. On each real region, fmRefine (with
// its exact re-run of an unsure region) leaves the oracle's three-pass sides.
func TestFMCoreMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f fmCore
	for i := range 3000 {
		lo, hi := randomCore(rng, &f, 1)
		matchOracle(t, fmt.Sprintf("random #%d", i), &f, lo, hi, true)
	}
	regions, unsure := 0, 0
	for _, c := range []string{"FPU", "AES", "LDPC", "DES", "M256"} {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			forEachRegion(t, c, 0.05, mode, func(e *engine, insts []int32, region geom.Rect, vertical bool, total float64) {
				lo, hi := 0.42*total, 0.58*total
				name := fmt.Sprintf("%s %v region of %d cells", c, mode, len(insts))
				r := refFrom(&e.core)
				for pass := 0; pass < 3; pass++ {
					if r.runPass(lo, hi) <= 0 {
						break
					}
				}
				regions++
				if matchOracle(t, name, &e.core, lo, hi, false) {
					unsure++
				}
				e.fmRefine(insts, region, vertical, total)
				for k, i := range insts {
					if e.side[i] != r.side[k] {
						t.Fatalf("%s: fmRefine puts cell %d on side %v, oracle %v", name, k, e.side[i], r.side[k])
					}
				}
			})
		}
	}
	// A region whose check came within rounding of a limit takes fmRefine's
	// exact re-run; the designs above must reach it, or it goes untested.
	t.Logf("%d regions, %d unsure", regions, unsure)
	if unsure == 0 {
		t.Error("no region was unsure: the exact re-run went untested")
	}
}

// With areas on a site grid that float sums round (as real cell widths are)
// and balance limits on that grid, a balance check can land on a limit
// exactly, where rounding decides it. refine, with its exact rerun of an
// unsure region, still leaves the oracle's three-pass sides.
func TestFMRefineMatchesOracleAtTies(t *testing.T) {
	var f fmCore
	unsure := 0
	for i := range 3000 {
		load := func() (lo, hi float64) { return randomCore(rand.New(rand.NewSource(int64(i))), &f, 0.19) }
		lo, hi := load()
		r := refFrom(&f)
		for pass := 0; pass < 3; pass++ {
			if r.runPass(lo, hi) <= 0 {
				break
			}
		}
		loads := 0
		f.refine(lo, hi, func() {
			if loads++; loads > 1 {
				unsure++
			}
			load()
		})
		for c := range f.cells {
			if f.cells[c].side != r.side[c] {
				t.Fatalf("random #%d: cell %d on side %v, oracle %v", i, c, f.cells[c].side, r.side[c])
			}
		}
	}
	t.Logf("%d of 3000 graphs reran exact", unsure)
	if unsure == 0 {
		t.Error("no graph was unsure: the exact rerun went untested")
	}
}

// forEachRegion places the circuit, then loads the FM core with the cells of
// every rectangle of a bisection of the die, split down to eight cells with
// the longer side cut first. Each region starts from bisect's index-order
// split; the cells outside it anchor its nets from their placed positions.
func forEachRegion(t *testing.T, circuit string, scale float64, mode tech.Mode, fn func(e *engine, insts []int32, region geom.Rect, vertical bool, total float64)) {
	t.Helper()
	p, lib := placed(t, circuit, scale, mode, 0.7)
	widths := make([]float64, len(p.X))
	for i := range widths {
		widths[i] = lib.MustCell(p.Design.Instances[i].CellName).Width
	}
	e := newEngine(p, widths, false)
	var walk func(insts []int32, region geom.Rect)
	walk = func(insts []int32, region geom.Rect) {
		if len(insts) <= 8 {
			return
		}
		vertical := region.W() >= region.H()
		total := 0.0
		for _, i := range insts {
			total += widths[i]
		}
		acc := 0.0
		for _, i := range insts {
			e.side[i] = acc >= total/2
			acc += widths[i]
		}
		e.loadRegion(insts, region, vertical)
		fn(e, insts, region, vertical, total)
		var ra, rb geom.Rect
		c := region.Center()
		if vertical {
			ra = geom.NewRect(region.Lo.X, region.Lo.Y, c.X, region.Hi.Y)
			rb = geom.NewRect(c.X, region.Lo.Y, region.Hi.X, region.Hi.Y)
		} else {
			ra = geom.NewRect(region.Lo.X, region.Lo.Y, region.Hi.X, c.Y)
			rb = geom.NewRect(region.Lo.X, c.Y, region.Hi.X, region.Hi.Y)
		}
		var a, b []int32
		for _, i := range insts {
			if (vertical && p.X[i] < c.X) || (!vertical && p.Y[i] < c.Y) {
				a = append(a, i)
			} else {
				b = append(b, i)
			}
		}
		if len(a) == 0 || len(b) == 0 {
			return
		}
		walk(a, ra)
		walk(b, rb)
	}
	all := make([]int32, len(p.X))
	for i := range all {
		all[i] = int32(i)
	}
	walk(all, p.Die)
}

// The cutoff fires on a real region: some pass ends with fewer moves than
// cells. A cutoff that never fires would pass every identity gate.
func TestFMCutoffFires(t *testing.T) {
	p, lib := placed(t, "FPU", 0.15, tech.Mode2D, 0.8)
	widths := make([]float64, len(p.X))
	all := make([]int32, len(p.X))
	total := 0.0
	for i := range widths {
		widths[i] = lib.MustCell(p.Design.Instances[i].CellName).Width
		all[i] = int32(i)
		total += widths[i]
	}
	e := newEngine(p, widths, false)
	acc := 0.0
	for _, i := range all {
		e.side[i] = acc >= total/2
		acc += widths[i]
	}
	e.loadRegion(all, p.Die, true)
	f := &e.core
	fired := false
	for pass := 0; pass < 3; pass++ {
		gain := f.runPass(0.42*total, 0.58*total, false)
		t.Logf("pass %d: %d of %d cells moved, cut improved by %d", pass, len(f.moved), len(f.cells), gain)
		fired = fired || len(f.moved) < len(f.cells)
		if gain <= 0 {
			break
		}
	}
	if !fired {
		t.Error("every pass moved every cell: the dead-net cutoff never fired")
	}
}

// The invariant the cutoff relies on: the gain kept for a picked cell never
// exceeds the true drop in cut its move makes. Checked over every move of a
// full pass (no cutoff) of every region of the five circuits.
func TestFMKeptGainBound(t *testing.T) {
	cut := func(f *fmCore, c int32) int {
		k := 0
		row := f.cellNets[f.netStart[c]:f.netStart[c+1]]
		for j, li := range row {
			if j > 0 && row[j-1] == li {
				continue // a duplicate pin: the net counts once
			}
			n := &f.nets[li]
			if (n.cnt[0] > 0 || n.anc[0]) && (n.cnt[1] > 0 || n.anc[1]) {
				k++
			}
		}
		return k
	}
	moves, lower := 0, 0
	for _, circuit := range []string{"FPU", "AES", "LDPC", "DES", "M256"} {
		forEachRegion(t, circuit, 0.05, tech.Mode2D, func(e *engine, insts []int32, _ geom.Rect, _ bool, total float64) {
			f := &e.core
			f.startPass()
			for {
				c := f.pickBest(0.42*total, 0.58*total)
				if c == fmNil {
					break
				}
				kept := int(f.cells[c].gain)
				before := cut(f, c)
				f.move(c)
				drop := before - cut(f, c)
				if kept > drop {
					t.Fatalf("%s: cell %d kept gain %d, but its move drops the cut by %d", circuit, c, kept, drop)
				}
				moves++
				if kept < drop {
					lower++
				}
			}
		})
	}
	t.Logf("%d moves, %d with a kept gain below the true drop", moves, lower)
	if moves == 0 {
		t.Fatal("no moves checked")
	}
}
