// Package par holds the worker-budget helper the benchmark harness still
// calls. Flows run on one goroutine; concurrency is between flows
// (core.Study.Workers, serve's job pool).
package par

import "runtime"

// Budget resolves a worker-count request: a positive value is taken as-is,
// zero or negative defaults to GOMAXPROCS.
//
// Deprecated: kept only because the benchmark harness still calls it; the
// next benchmark change removes it, and this package with it.
func Budget(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
