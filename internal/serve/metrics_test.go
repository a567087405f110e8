package serve

import (
	"sync"
	"testing"
	"time"
)

// stallWriter is a /metrics client that stops reading: its first Write
// signals entered and every Write blocks until release is closed.
type stallWriter struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestSlowScrapeDoesNotBlockUpdates pins the leaf-lock invariant of Metrics:
// a scrape whose writer never drains must not hold the registry lock, so the
// request path's Add and Observe still return.
func TestSlowScrapeDoesNotBlockUpdates(t *testing.T) {
	m := NewMetrics()
	m.Counter("c_total", "A counter.")
	m.Histogram("h_seconds", "A histogram.", []float64{1})
	w := &stallWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		m.WriteText(w)
	}()
	defer func() {
		close(w.release)
		<-scraped
	}()
	<-w.entered

	updated := make(chan struct{})
	go func() {
		defer close(updated)
		m.Add("c_total", "", 1)
		m.Observe("h_seconds", "", 0.5)
	}()
	select {
	case <-updated:
	case <-time.After(2 * time.Second):
		t.Fatal("Add/Observe still blocked 2 s into a stalled /metrics write")
	}
}

// TestWriteTextGolden pins the exposition bytes for a fixed registry state.
// The benchmark harness and loadgen -check parse this text, so any change to
// it is a wire change.
func TestWriteTextGolden(t *testing.T) {
	m := NewMetrics()
	m.Counter("a_total", "Requests by code.")
	m.Gauge("b_depth", "A sampled gauge.", func() float64 { return 3 })
	m.Histogram("c_seconds", "Latency.", []float64{0.5, 2})
	m.Counter("d_total", "Never bumped.")
	m.Add("a_total", `code="500"`, 1)
	m.Add("a_total", `code="200"`, 2.5)
	m.Observe("c_seconds", `ep="x"`, 0.25)
	m.Observe("c_seconds", `ep="x"`, 3)
	m.Observe("c_seconds", "", 1)
	const want = `# HELP a_total Requests by code.
# TYPE a_total counter
a_total{code="200"} 2.5
a_total{code="500"} 1
# HELP b_depth A sampled gauge.
# TYPE b_depth gauge
b_depth 3
# HELP c_seconds Latency.
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 0
c_seconds_bucket{le="2"} 1
c_seconds_bucket{le="+Inf"} 1
c_seconds_sum 1
c_seconds_count 1
c_seconds_bucket{ep="x",le="0.5"} 1
c_seconds_bucket{ep="x",le="2"} 1
c_seconds_bucket{ep="x",le="+Inf"} 2
c_seconds_sum{ep="x"} 3.25
c_seconds_count{ep="x"} 2
# HELP d_total Never bumped.
# TYPE d_total counter
`
	if got := m.Text(); got != want {
		t.Errorf("WriteText bytes changed\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
