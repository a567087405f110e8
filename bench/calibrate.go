package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Reference times of the two calibration kernels, close to their times on
// one idle core of the machine the baseline in README.md was measured on.
// They fix the scale of the reported times; changing them rescales every
// result, so they stay constant.
const (
	refSortS = 0.0065
	refJSONS = 0.0062
)

// calibrator times two fixed kernels that call no program code: a compute
// kernel (sort, map lookups, sha256; no allocation) and an allocation kernel
// (encoding/json round trip of a fixed document), one copy per core, all at
// once. The host this benchmark runs on drifts in speed by ±20% over tens of
// seconds, by more at times, because other tenants share its cores, often
// one core at a time; within one run the samples agree. Timing the kernels
// on every core around each operation measures that drift, and dividing
// the operation's time by it removes most of it. Measured against the flow,
// the stage engine and the matrix, the pair tracks the drift better than
// either kernel alone or a pointer-chasing kernel.
//
// The kernels run in the parent process, never in the child that runs the
// workload: in the child, the allocation kernel's time would depend on the
// state the workload left its heap and collector in, so a change that
// allocates more would read the host as slower and hide part of its own
// cost. The child asks for each reading over a pipe (askParent).
type calibrator struct {
	cores []*kernels
}

// kernels is one core's copy of the kernels' inputs and buffers.
type kernels struct {
	src, work []uint64
	index     map[uint64]int
	bytes     []byte
	doc       []calDoc
}

type calDoc struct {
	Name string         `json:"name"`
	Vals []float64      `json:"vals"`
	Kids map[string]int `json:"kids"`
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.cores = append(c.cores, newKernels())
	}
	return c
}

func newKernels() *kernels {
	rng := rand.New(rand.NewPCG(1, 2))
	k := &kernels{src: make([]uint64, 1<<16), work: make([]uint64, 1<<16),
		index: make(map[uint64]int, 1<<14), bytes: make([]byte, 1<<18), doc: make([]calDoc, 2000)}
	for i := range k.src {
		k.src[i] = rng.Uint64()
	}
	for i, x := range k.src[:1<<14] {
		k.index[x>>9] = i
	}
	for i := range k.bytes {
		k.bytes[i] = byte(k.src[i%len(k.src)])
	}
	for i := range k.doc {
		k.doc[i] = calDoc{Name: "n" + strconv.Itoa(i), Vals: []float64{rng.Float64(), rng.Float64(), 3},
			Kids: map[string]int{"a": i, "b": 2 * i}}
	}
	return k
}

func (k *kernels) sortKernel() uint64 {
	copy(k.work, k.src)
	slices.Sort(k.work)
	var sum uint64
	for _, x := range k.work {
		if v, ok := k.index[x>>9]; ok {
			sum += uint64(v)
		}
	}
	h := sha256.Sum256(k.bytes)
	return sum + uint64(h[0])
}

func (k *kernels) jsonKernel() uint64 {
	data, err := json.Marshal(k.doc)
	if err != nil {
		panic(err) // a fixed, encodable document
	}
	var back []calDoc
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	return uint64(len(back))
}

// slowness is this core's reading: the mean over both kernels of median
// time (of nine runs) ÷ reference time. sink keeps the work observable.
func (k *kernels) slowness() (slow float64, sink uint64) {
	med := func(kernel func() uint64) float64 {
		ts := make([]float64, 9)
		for i := range ts {
			t0 := time.Now()
			sink += kernel()
			ts[i] = time.Since(t0).Seconds()
		}
		return median(ts)
	}
	return (med(k.sortKernel)/refSortS + med(k.jsonKernel)/refJSONS) / 2, sink
}

// calSink receives the kernels' results so the compiler keeps their work.
var calSink uint64

// measure returns how much slower than the reference the host runs right
// now: the mean of every core's reading, taken at once.
func (c *calibrator) measure() float64 {
	slow := make([]float64, len(c.cores))
	sinks := make([]uint64, len(c.cores))
	var wg sync.WaitGroup
	for i := 0; i < len(c.cores); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slow[i], sinks[i] = c.cores[i].slowness()
		}(i)
	}
	wg.Wait()
	sum := 0.0
	for i := range slow {
		sum += slow[i]
		calSink += sinks[i]
	}
	return sum / float64(len(slow))
}

// calLine is the line a child prints to ask the parent for a reading; the
// parent answers with the reading on the child's standard input.
const calLine = "CAL"

// askParent returns the child's reading function. Before it asks, it waits
// for a collection the last operation started to finish marking, so the
// child's mark workers do not compete with the parent's kernels for the
// cores. That wait starts no collection and leaves the heap goal as it was.
func askParent(in *bufio.Reader) func() float64 {
	return func() float64 {
		debug.SetGCPercent(debug.SetGCPercent(-1)) // disabling returns once no mark phase runs
		fmt.Println(calLine)
		line, err := in.ReadString('\n')
		var slow float64
		if err == nil {
			slow, err = strconv.ParseFloat(strings.TrimSpace(line), 64)
		}
		if err != nil {
			// The parent is gone or broken; no result can reach it.
			fmt.Fprintln(os.Stderr, "bench: no host-speed reading from the parent:", err)
			os.Exit(1)
		}
		return slow
	}
}
