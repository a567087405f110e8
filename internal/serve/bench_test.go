package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tmi3d/internal/flow"
)

// The serve benchmarks measure the serving layer itself, not the flow: the
// stubbed runner returns instantly, so BenchmarkServeHot is the full HTTP +
// LRU path for a warm key and BenchmarkServeCold is the miss path (job table,
// queue hand-off, canonical encode, store write) with a unique key per
// iteration. The repository benchmark tracks the served path end to end as
// the serve_hot and serve_mix workloads (make bench).

func newBenchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s, err := NewServer(Config{StoreDir: b.TempDir(), Workers: 2, QueueDepth: 1024, LRUSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	s.runFlow = func(cfg flow.Config) (*flow.Result, error) { return stubResult(cfg), nil }
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

func BenchmarkServeHot(b *testing.B) {
	_, ts := newBenchServer(b)
	url := ts.URL + "/v1/ppa?circuit=FPU&scale=0.1"
	benchGet(b, url) // warm the LRU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

func BenchmarkServeCold(b *testing.B) {
	_, ts := newBenchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, fmt.Sprintf("%s/v1/ppa?circuit=FPU&scale=0.1&seed=%d", ts.URL, i+1))
	}
}
