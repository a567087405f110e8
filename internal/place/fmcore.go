package place

// Proper Fiduccia–Mattheyses refinement: gain buckets with doubly-linked
// lists, single-cell moves with balance control, and best-prefix rollback.
// Used by fmRefine for regions large enough to matter. One core per
// placement is reset for each region, so its buffers are allocated once, at
// the size of the root region.

type fmNet struct {
	cnt  [2]int // movable pins on each side
	anc  [2]bool
	pins []int32 // local cell ids
}

type fmCore struct {
	nets  []fmNet
	cells [][]int32 // local cell id → net ids (local)
	side  []bool    // current side (false=A)
	area  []float64
	gain  []int
	// bucket lists
	maxGain int
	bucket  []int32 // head per gain offset; -1 empty
	next    []int32
	prev    []int32
	inList  []bool
	locked  []bool
	areaA   float64
	totArea float64
	moved   []int32 // the current pass's moves, in order
}

const fmNil = int32(-1)

// reset empties the core for a region of numCells cells and numNets nets.
func (f *fmCore) reset(numCells, numNets int) {
	f.nets = resize(f.nets, numNets)
	f.cells = resize(f.cells, numCells)
	f.side = resize(f.side, numCells)
	f.area = resize(f.area, numCells)
	f.gain = resize(f.gain, numCells)
	f.next = resize(f.next, numCells)
	f.prev = resize(f.prev, numCells)
	f.inList = resize(f.inList, numCells)
	f.locked = resize(f.locked, numCells)
	f.areaA, f.totArea = 0, 0
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

func (f *fmCore) gainOf(c int32) int {
	g := 0
	from := boolIdx(f.side[c])
	to := 1 - from
	for _, ni := range f.cells[c] {
		n := &f.nets[ni]
		if n.cnt[from] == 1 && !n.anc[from] && (n.cnt[to] > 0 || n.anc[to]) {
			g++
		}
		if n.cnt[to] == 0 && !n.anc[to] {
			g--
		}
	}
	return g
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// initBuckets fills the gain structure.
func (f *fmCore) initBuckets() {
	f.maxGain = 1
	for c := range f.cells {
		if d := len(f.cells[c]); d > f.maxGain {
			f.maxGain = d
		}
	}
	f.bucket = resize(f.bucket, 2*f.maxGain+1)
	for i := range f.bucket {
		f.bucket[i] = fmNil
	}
	for c := range f.cells {
		f.gain[c] = f.gainOf(int32(c))
		f.push(int32(c))
	}
}

func (f *fmCore) push(c int32) {
	g := f.gain[c] + f.maxGain
	if g < 0 {
		g = 0
	}
	if g >= len(f.bucket) {
		g = len(f.bucket) - 1
	}
	f.next[c] = f.bucket[g]
	f.prev[c] = fmNil
	if f.bucket[g] != fmNil {
		f.prev[f.bucket[g]] = c
	}
	f.bucket[g] = c
	f.inList[c] = true
}

func (f *fmCore) remove(c int32) {
	if !f.inList[c] {
		return
	}
	g := f.gain[c] + f.maxGain
	if g < 0 {
		g = 0
	}
	if g >= len(f.bucket) {
		g = len(f.bucket) - 1
	}
	if f.prev[c] != fmNil {
		f.next[f.prev[c]] = f.next[c]
	} else if f.bucket[g] == c {
		f.bucket[g] = f.next[c]
	}
	if f.next[c] != fmNil {
		f.prev[f.next[c]] = f.prev[c]
	}
	f.inList[c] = false
}

func (f *fmCore) updateGain(c int32, delta int) {
	if f.locked[c] {
		return
	}
	f.remove(c)
	f.gain[c] += delta
	f.push(c)
}

// pickBest returns the highest-gain movable cell within balance, or -1.
func (f *fmCore) pickBest(lo, hi float64) int32 {
	for g := len(f.bucket) - 1; g >= 0; g-- {
		for c := f.bucket[g]; c != fmNil; c = f.next[c] {
			na := f.areaA
			if f.side[c] {
				na += f.area[c]
			} else {
				na -= f.area[c]
			}
			if na >= lo && na <= hi {
				return c
			}
		}
	}
	return fmNil
}

// move flips cell c, updating net counts and neighbor gains (standard FM
// incremental update rules).
func (f *fmCore) move(c int32) {
	from := boolIdx(f.side[c])
	to := 1 - from
	f.remove(c)
	f.locked[c] = true
	if f.side[c] {
		f.areaA += f.area[c]
	} else {
		f.areaA -= f.area[c]
	}
	for _, ni := range f.cells[c] {
		n := &f.nets[ni]
		// Before-move checks on the TO side.
		toCnt := n.cnt[to]
		if toCnt == 0 && !n.anc[to] {
			// Net becomes cut: all movable pins on FROM gain +1.
			for _, p := range n.pins {
				if p != c {
					f.updateGain(p, 1)
				}
			}
		} else if toCnt == 1 && !n.anc[to] {
			// The single TO-side pin loses its removal gain.
			for _, p := range n.pins {
				if p != c && f.side[p] == (to == 1) {
					f.updateGain(p, -1)
				}
			}
		}
		n.cnt[from]--
		n.cnt[to]++
		// After-move checks on the FROM side.
		fromCnt := n.cnt[from]
		if fromCnt == 0 && !n.anc[from] {
			for _, p := range n.pins {
				if p != c {
					f.updateGain(p, -1)
				}
			}
		} else if fromCnt == 1 && !n.anc[from] {
			for _, p := range n.pins {
				if p != c && f.side[p] == (from == 1) {
					f.updateGain(p, 1)
				}
			}
		}
	}
	f.side[c] = !f.side[c]
}

// cutSize counts cut nets (anchors included).
func (f *fmCore) cutSize() int {
	cut := 0
	for i := range f.nets {
		n := &f.nets[i]
		a := n.cnt[0] > 0 || n.anc[0]
		b := n.cnt[1] > 0 || n.anc[1]
		if a && b {
			cut++
		}
	}
	return cut
}

// runPass executes one full FM pass with best-prefix rollback; returns the
// improvement in cut size.
func (f *fmCore) runPass(lo, hi float64) int {
	for c := range f.locked {
		f.locked[c] = false
	}
	f.initBuckets()

	startCut := f.cutSize()
	bestCut := startCut
	curCut := startCut
	moved := f.moved[:0]
	bestPrefix := 0
	for {
		c := f.pickBest(lo, hi)
		if c == fmNil {
			break
		}
		curCut -= f.gain[c]
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
		// Undo: flip side and restore counts (no gain maintenance needed).
		from := boolIdx(f.side[c])
		to := 1 - from
		for _, ni := range f.cells[c] {
			f.nets[ni].cnt[from]--
			f.nets[ni].cnt[to]++
		}
		if f.side[c] {
			f.areaA += f.area[c]
		} else {
			f.areaA -= f.area[c]
		}
		f.side[c] = !f.side[c]
	}
	return startCut - bestCut
}
