package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkDef is the part of BENCHMARK.json compare reads.
type benchmarkDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runCompare prints, for each workload and metric, every side's median and
// quartiles and each later side's verdict against the first. Runs pair up
// by their order within a workload, so interleave the two sides' runs when
// recording them; a pair of runs made with different settings is an error.
func runCompare(benchPath string, files []string, w io.Writer) error {
	if len(files) < 2 {
		return fmt.Errorf("compare needs a base result file and at least one more")
	}
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	sides := make([]*resultFile, len(files))
	for i, f := range files {
		if sides[i], err = loadResults(f); err != nil {
			return err
		}
	}
	names := workloadNames(sides[0])
	byWorkload := map[string][][]record{} // workload → side → runs
	for _, wl := range names {
		runs := make([][]record, len(sides))
		for i, side := range sides {
			runs[i] = runsOf(side, wl)
		}
		for i := range sides[1:] {
			for k := 0; k < min(len(runs[0]), len(runs[i+1])); k++ {
				if err := pairable(runs[0][k], runs[i+1][k]); err != nil {
					return fmt.Errorf("%s vs %s, %s run %d: %w", files[0], files[i+1], wl, k+1, err)
				}
			}
		}
		byWorkload[wl] = runs
	}
	fmt.Fprintf(w, "base: %s\n", files[0])
	for _, wl := range names {
		runs := byWorkload[wl]
		for _, m := range append(append([]benchMetric(nil), def.EndToEnd...), def.PerLayer...) {
			base := values(runs[0], m.Name)
			if len(base) == 0 {
				continue
			}
			q1, q3 := quartiles(base)
			fmt.Fprintf(w, "%-10s %-32s base %10.4g [%.4g, %.4g] n=%d", wl, m.Name, median(base), q1, q3, len(base))
			for i := range sides[1:] {
				xs := values(runs[i+1], m.Name)
				if len(xs) == 0 {
					fmt.Fprintf(w, " | %s: no runs", files[i+1])
					continue
				}
				q1, q3 := quartiles(xs)
				fmt.Fprintf(w, " | %s %10.4g [%.4g, %.4g] n=%d %s", files[i+1], median(xs), q1, q3, len(xs),
					verdict(base, xs, m.Better == "lower", m.Bound))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func workloadNames(rf *resultFile) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rf.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	return names
}

// runsOf are one workload's runs, in run order.
func runsOf(rf *resultFile, workload string) []record {
	var runs []record
	for _, r := range rf.Runs {
		if r.Workload == workload {
			runs = append(runs, r)
		}
	}
	return runs
}

// pairable says why two runs cannot be compared: each side must have
// measured for the same time, with tracing on or off alike, on as many
// cores and with the same GOMAXPROCS.
func pairable(a, b record) error {
	switch {
	case a.Seconds != b.Seconds:
		return fmt.Errorf("run length %d s vs %d s", a.Seconds, b.Seconds)
	case a.Trace != b.Trace:
		return fmt.Errorf("trace %v vs %v", a.Trace, b.Trace)
	case a.Cores != b.Cores || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("cores/GOMAXPROCS %d/%d vs %d/%d", a.Cores, a.GOMAXPROCS, b.Cores, b.GOMAXPROCS)
	}
	return nil
}

// values are a metric's per-run values, in run order.
func values(runs []record, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}
