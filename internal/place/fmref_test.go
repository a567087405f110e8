package place

// refCore is the full-pass Fiduccia–Mattheyses core that fmCore replaced,
// kept verbatim as the oracle for fmCore's early exit: each pass moves every
// cell it can and then rolls back past the best prefix. TestFMCoreMatchesOracle
// requires both cores to leave the same sides, area and improvement after
// every pass.

type refNet struct {
	cnt  [2]int // movable pins on each side
	anc  [2]bool
	pins []int32 // local cell ids
}

type refCore struct {
	nets  []refNet
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

func (f *refCore) gainOf(c int32) int {
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

// initBuckets fills the gain structure.
func (f *refCore) initBuckets() {
	f.maxGain = 1
	for c := range f.cells {
		if d := len(f.cells[c]); d > f.maxGain {
			f.maxGain = d
		}
	}
	f.bucket = make([]int32, 2*f.maxGain+1)
	for i := range f.bucket {
		f.bucket[i] = fmNil
	}
	for c := range f.cells {
		f.gain[c] = f.gainOf(int32(c))
		f.push(int32(c))
	}
}

func (f *refCore) push(c int32) {
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

func (f *refCore) remove(c int32) {
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

func (f *refCore) updateGain(c int32, delta int) {
	if f.locked[c] {
		return
	}
	f.remove(c)
	f.gain[c] += delta
	f.push(c)
}

// pickBest returns the highest-gain movable cell within balance, or -1.
func (f *refCore) pickBest(lo, hi float64) int32 {
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
func (f *refCore) move(c int32) {
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
func (f *refCore) cutSize() int {
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
func (f *refCore) runPass(lo, hi float64) int {
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
