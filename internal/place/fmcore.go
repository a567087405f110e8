package place

// Proper Fiduccia–Mattheyses refinement: gain buckets with doubly-linked
// lists, single-cell moves with balance control, and best-prefix rollback.
// Used by fmRefine for regions large enough to matter. One core per
// placement is loaded for each region, so its buffers are allocated once, at
// the size of the root region.
//
// A pass stops as soon as no later prefix of its moves can beat the best cut
// it has seen (see runPass), so it leaves exactly the sides a pass that moves
// every cell and rolls most of them back would leave.

import "math"

// fmNet is one net of the region.
type fmNet struct {
	cnt [2]int32 // pin entries on each side
	// lone is the XOR of the cells of the pin entries on each side: the one
	// pin on a side whose cnt is 1.
	lone   [2]int32
	lo, hi int32   // the net's pin entries, pins[lo:hi], in cell order
	anc    [2]bool // a pin outside the region (an anchor) lies on that side
	fix    [2]bool // an anchor, or a pin locked this pass, lies on that side
}

// fmCell is one cell of the region and its place in the gain buckets.
// During a pass every unlocked cell is in the bucket of its gain, so a cell
// without a prev is its bucket's head.
type fmCell struct {
	area       float64
	gain       int32
	next, prev int32 // bucket list neighbours, fmNil at either end
	side       bool  // false = A
	locked     bool
}

type fmCore struct {
	nets  []fmNet
	pins  []int32 // every net's pin entries (cell ids), one row per net
	cells []fmCell
	// Cell c's nets are cellNets[netStart[c]:netStart[c+1]], one entry per
	// pin, so a net a cell touches twice appears twice.
	netStart []int32
	cellNets []int32
	maxGain  int32
	bucket   []int32 // head per gain slot; fmNil when empty
	top      int     // no bucket above top is non-empty
	areaA    float64
	totArea  float64
	// A pass that stops early while improving leaves areaA off the full
	// pass's in its last bits, since float sums depend on their order. slack
	// bounds that difference (0 while the two agree exactly), tol bounds it
	// for the current pass's balance checks, and unsure records a check that
	// fell within tol of a limit, where the two could decide differently.
	slack, tol float64
	unsure     bool
	dead       int     // nets that stay cut for the rest of the pass
	deadAnc    int     // nets anchored on both sides
	moved      []int32 // the current pass's moves, in order
}

const fmNil = int32(-1)

// reset empties the core for a region of numCells cells. The caller then
// fills cells (side and area), netStart and cellNets, appends one fmNet per
// net with its anc set, and calls link.
func (f *fmCore) reset(numCells int) {
	f.cells = resize(f.cells, numCells)
	f.netStart = resize(f.netStart, numCells+1)
	f.cellNets = f.cellNets[:0]
	f.nets = f.nets[:0]
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// link builds each net's pin row (in cell order) and side counts from the
// cells' net rows, and the region's A-side area and gain range.
func (f *fmCore) link() {
	for _, ni := range f.cellNets {
		f.nets[ni].hi++
	}
	off := int32(0)
	for i := range f.nets {
		n := &f.nets[i]
		k := n.hi
		n.lo, n.hi = off, off
		off += k
	}
	if cap(f.pins) < len(f.cellNets) {
		f.pins = make([]int32, len(f.cellNets))
	}
	f.pins = f.pins[:len(f.cellNets)]
	f.areaA, f.totArea = 0, 0
	f.slack, f.unsure = 0, false
	f.maxGain = 1
	for c := range f.cells {
		cl := &f.cells[c]
		s := boolIdx(cl.side)
		row := f.cellNets[f.netStart[c]:f.netStart[c+1]]
		if d := int32(len(row)); d > f.maxGain {
			f.maxGain = d
		}
		for _, ni := range row {
			n := &f.nets[ni]
			f.pins[n.hi] = int32(c)
			n.hi++
			n.cnt[s]++
			n.lone[s] ^= int32(c)
		}
		if !cl.side {
			f.areaA += cl.area
		}
		f.totArea += cl.area
	}
	f.deadAnc = 0
	for i := range f.nets {
		if f.nets[i].anc == [2]bool{true, true} {
			f.deadAnc++
		}
	}
	f.bucket = resize(f.bucket, int(2*f.maxGain+1))
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slot is the bucket holding gain g, clamped to the bucket range.
func (f *fmCore) slot(g int32) int {
	s := int(g + f.maxGain)
	if s < 0 {
		return 0
	}
	return min(s, len(f.bucket)-1)
}

func (f *fmCore) push(c int32) {
	cl := &f.cells[c]
	g := f.slot(cl.gain)
	head := f.bucket[g]
	cl.next, cl.prev = head, fmNil
	if head != fmNil {
		f.cells[head].prev = c
	}
	f.bucket[g] = c
	f.top = max(f.top, g)
}

func (f *fmCore) remove(c int32) {
	cl := &f.cells[c]
	if cl.prev != fmNil {
		f.cells[cl.prev].next = cl.next
	} else {
		f.bucket[f.slot(cl.gain)] = cl.next
	}
	if cl.next != fmNil {
		f.cells[cl.next].prev = cl.prev
	}
}

func (f *fmCore) updateGain(c int32, delta int32) {
	if f.cells[c].locked {
		return
	}
	f.remove(c)
	f.cells[c].gain += delta
	f.push(c)
}

// pickBest returns the highest-gain movable cell within balance, or -1.
func (f *fmCore) pickBest(lo, hi float64) int32 {
	for f.top >= 0 && f.bucket[f.top] == fmNil {
		f.top--
	}
	cells, areaA, tol := f.cells, f.areaA, f.tol
	for g := f.top; g >= 0; g-- {
		for c := f.bucket[g]; c != fmNil; c = cells[c].next {
			cl := &cells[c]
			na := areaA
			if cl.side {
				na += cl.area
			} else {
				na -= cl.area
			}
			if tol > 0 && (math.Abs(na-lo) <= tol || math.Abs(na-hi) <= tol) {
				f.unsure = true
			}
			if na >= lo && na <= hi {
				return c
			}
		}
	}
	return fmNil
}

// move flips cell c, updating net counts and neighbor gains (standard FM
// incremental update rules), and counts the nets that c's lock makes dead.
// A side whose count is 1 names its one pin in lone, so only a net that
// becomes or stops being uncut walks its pins, in pin order. A side that
// holds an anchor needs no update, and neither does one that holds a locked
// pin other than c: its count is never 0, and a count of 1 names that pin,
// whose gain no longer changes.
func (f *fmCore) move(c int32) {
	cl := &f.cells[c]
	from := boolIdx(cl.side)
	to := 1 - from
	f.remove(c)
	cl.locked = true
	if cl.side {
		f.areaA += cl.area
	} else {
		f.areaA -= cl.area
	}
	for _, ni := range f.cellNets[f.netStart[c]:f.netStart[c+1]] {
		n := &f.nets[ni]
		fixTo, fixFrom := n.fix[to], n.fix[from]
		// Before-move checks on the TO side.
		if !fixTo {
			n.fix[to] = true
			if fixFrom {
				f.dead++
			}
			switch n.cnt[to] {
			case 0:
				// Net becomes cut: all movable pins on FROM gain +1.
				for _, p := range f.pins[n.lo:n.hi] {
					f.updateGain(p, 1)
				}
			case 1:
				// The single TO-side pin loses its removal gain.
				f.updateGain(n.lone[to], -1)
			}
		}
		n.cnt[from]--
		n.cnt[to]++
		n.lone[from] ^= c
		n.lone[to] ^= c
		// After-move checks on the FROM side. A lone pin that is c itself
		// (a net c touches twice) is locked, so updateGain leaves it.
		if !fixFrom {
			switch n.cnt[from] {
			case 0:
				for _, p := range f.pins[n.lo:n.hi] {
					f.updateGain(p, -1)
				}
			case 1:
				f.updateGain(n.lone[from], 1)
			}
		}
	}
	cl.side = !cl.side
}

// startPass unlocks every cell, seeds each net's fixed sides and the dead
// count from the anchors, computes every cell's gain net by net, and fills
// the gain buckets in cell order; it returns the cut size (anchors
// included).
//
// A cell gains 1 for each net on which it is the one pin of its side while
// the other side is occupied, and loses 1 for each of its pin entries on a
// net whose other side is empty.
func (f *fmCore) startPass() int {
	for i := range f.bucket {
		f.bucket[i] = fmNil
	}
	f.top = -1
	for c := range f.cells {
		f.cells[c].locked = false
		f.cells[c].gain = 0
	}
	startCut := 0
	for i := range f.nets {
		n := &f.nets[i]
		n.fix = n.anc
		has := [2]bool{n.cnt[0] > 0 || n.anc[0], n.cnt[1] > 0 || n.anc[1]}
		if has[0] && has[1] {
			startCut++
		}
		for s := range 2 {
			if !has[1-s] {
				for _, p := range f.pins[n.lo:n.hi] {
					f.cells[p].gain--
				}
			} else if n.cnt[s] == 1 && !n.anc[s] {
				f.cells[n.lone[s]].gain++
			}
		}
	}
	f.dead = f.deadAnc
	f.tol = 0
	if f.slack > 0 {
		// This pass adds up to two roundings per cell, and one per check.
		f.tol = f.slack + float64(2*len(f.cells)+1)*f.ulp()
	}
	for c := range f.cells {
		f.push(int32(c))
	}
	return startCut
}

// refine loads the region with load and runs up to three passes, stopping
// after the first that improves nothing. If a balance check came within
// rounding of a limit after a pass that stopped early, the full passes could
// have decided it differently: refine then loads the region again and reruns
// its passes exact, each improving pass run to its end, so areaA stays bit
// for bit the full passes'.
func (f *fmCore) refine(lo, hi float64, load func()) {
	for _, exact := range []bool{false, true} {
		load()
		for pass := 0; pass < 3; pass++ {
			if f.runPass(lo, hi, exact) <= 0 {
				break
			}
		}
		if !f.unsure {
			return
		}
	}
}

// ulp bounds how far one area addition, made by this core and by the full
// passes alike, can move their areaA apart: each rounds by at most 2^-53 of
// the largest sum, the total, and 2^-51 leaves a factor two to spare.
func (f *fmCore) ulp() float64 { return 0x1p-51 * f.totArea }

// runPass executes one FM pass with best-prefix rollback; returns the
// improvement in cut size.
//
// The pass stops once dead >= bestCut. A net is dead when each side holds an
// anchor or a pin locked this pass: nothing on it moves again before the
// rollback, so it stays cut. The gain kept for a picked cell never exceeds
// the true drop in cut (it is lower only through a net with duplicate pins or
// a single pin), so curCut >= the true cut >= dead from then on, and no later
// prefix can reach curCut < bestCut. The best prefix, the rollback to it and
// the returned improvement are the full pass's, which moves every cell it
// can; TestFMCoreMatchesOracle checks them against that pass, and
// TestFMKeptGainBound the gain bound.
//
// Only areaA can differ, in its last bits: the full pass adds and takes back
// the areas of the moves it makes past the cutoff. A pass that returns 0 ends
// the region, so its areaA is never read; after a pass that improves, slack
// grows by the additions either side made that the other did not, and every
// later addition. With exact, an improving pass runs to its end instead.
func (f *fmCore) runPass(lo, hi float64, exact bool) int {
	startCut := f.startPass()
	bestCut := startCut
	curCut := startCut
	moved := f.moved[:0]
	bestPrefix := 0
	early := false
	for {
		if f.dead >= bestCut && !(exact && bestCut < startCut) {
			early = true
			break
		}
		c := f.pickBest(lo, hi)
		if c == fmNil {
			break
		}
		curCut -= int(f.cells[c].gain)
		f.move(c)
		moved = append(moved, c)
		if curCut < bestCut {
			bestCut = curCut
			bestPrefix = len(moved)
		}
	}
	f.moved = moved
	// Roll back moves beyond the best prefix.
	for i := len(moved) - 1; i >= bestPrefix; i-- {
		c := moved[i]
		cl := &f.cells[c]
		// Undo: flip side and restore counts (no gain maintenance needed).
		from := boolIdx(cl.side)
		to := 1 - from
		for _, ni := range f.cellNets[f.netStart[c]:f.netStart[c+1]] {
			n := &f.nets[ni]
			n.cnt[from]--
			n.cnt[to]++
			n.lone[from] ^= c
			n.lone[to] ^= c
		}
		if cl.side {
			f.areaA += cl.area
		} else {
			f.areaA -= cl.area
		}
		cl.side = !cl.side
	}
	if early && bestCut < startCut {
		// The full pass makes at most two additions per cell that this one
		// did not.
		f.slack += float64(2*len(f.cells)) * f.ulp()
	}
	if f.slack > 0 {
		f.slack += float64(2*len(moved)) * f.ulp()
	}
	return startCut - bestCut
}
