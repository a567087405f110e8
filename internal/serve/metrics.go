package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Hand-rolled Prometheus-text-format metrics. The daemon deliberately avoids
// a client library dependency: the exposition format is three line shapes
// (HELP/TYPE/sample), and owning the registry keeps the hot-path cost to one
// mutex and a map update.
//
// Counters and gauges are float64 series keyed by (name, rendered labels);
// histograms carry fixed bucket bounds plus sum and count. WriteText renders
// everything in sorted order so /metrics output is stable — scrape diffs
// show real changes, never map-iteration noise.

type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1, last = +Inf bucket
	sum    float64
	count  uint64
}

type metricDef struct {
	help string
	typ  string // "counter", "gauge", "histogram"
}

// Metrics is a small typed registry.
//
// The family tables (defs, names, gauges, bounds and the per-family series
// maps) are written by Counter, Gauge and Histogram before the registry is
// shared, and only read after that. mu guards the series values alone, and
// it is a leaf lock: no critical section takes another lock, runs a gauge
// sampler or writes to an io.Writer. A slow /metrics client therefore never
// stalls Add or Observe, and a sampler may take its owner's locks without
// ordering them against mu.
type Metrics struct {
	mu       sync.Mutex
	defs     map[string]metricDef
	names    []string                      // registration order for stable grouping
	counters map[string]map[string]float64 // name → labels → value
	hists    map[string]map[string]*histogram
	bounds   map[string][]float64
	gauges   map[string]func() float64 // name → sampler, run at scrape outside mu
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		defs:     map[string]metricDef{},
		counters: map[string]map[string]float64{},
		hists:    map[string]map[string]*histogram{},
		bounds:   map[string][]float64{},
		gauges:   map[string]func() float64{},
	}
}

func (m *Metrics) register(name, help, typ string) {
	if _, ok := m.defs[name]; ok {
		panic("serve: duplicate metric " + name)
	}
	m.defs[name] = metricDef{help: help, typ: typ}
	m.names = append(m.names, name)
}

// Counter declares a counter family. Like Gauge and Histogram, it must be
// called before the registry is shared.
func (m *Metrics) Counter(name, help string) {
	m.register(name, help, "counter")
	m.counters[name] = map[string]float64{}
}

// Gauge declares a gauge whose value is sampled at scrape time. The sampler
// runs outside the registry lock, so it may take its owner's locks.
func (m *Metrics) Gauge(name, help string, sample func() float64) {
	m.register(name, help, "gauge")
	m.gauges[name] = sample
}

// Histogram declares a histogram family with the given upper bounds.
func (m *Metrics) Histogram(name, help string, bounds []float64) {
	m.register(name, help, "histogram")
	m.hists[name] = map[string]*histogram{}
	m.bounds[name] = bounds
}

// Add increments a counter series by delta. labels is the pre-rendered label
// body, e.g. `stage="synth"` (empty for an unlabeled series).
func (m *Metrics) Add(name, labels string, delta float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		panic("serve: unknown counter " + name)
	}
	c[labels] += delta
}

// Observe records a histogram sample.
func (m *Metrics) Observe(name, labels string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs, ok := m.hists[name]
	if !ok {
		panic("serve: unknown histogram " + name)
	}
	h := hs[labels]
	if h == nil {
		b := m.bounds[name]
		h = &histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		hs[labels] = h
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// CounterValue reads one counter series (tests and health checks).
func (m *Metrics) CounterValue(name, labels string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name][labels]
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4), sorted for stable output. Gauges are sampled before mu is
// taken, and the text is written to w only after mu is released.
func (m *Metrics) WriteText(w io.Writer) {
	gaugeVals := make(map[string]float64, len(m.gauges))
	for name, sample := range m.gauges {
		gaugeVals[name] = sample()
	}
	var b bytes.Buffer
	m.mu.Lock()
	for _, name := range m.names {
		def := m.defs[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, def.help, name, def.typ)
		switch def.typ {
		case "counter":
			series := m.counters[name]
			keys := make([]string, 0, len(series))
			for k := range series {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s %s\n", seriesName(name, k), fmtFloat(series[k]))
			}
		case "gauge":
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(gaugeVals[name]))
		case "histogram":
			series := m.hists[name]
			keys := make([]string, 0, len(series))
			for k := range series {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h := series[k]
				cum := uint64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i]
					le := fmt.Sprintf(`le="%s"`, fmtFloat(bound))
					if k != "" {
						le = k + "," + le
					}
					fmt.Fprintf(&b, "%s_bucket{%s} %d\n", name, le, cum)
				}
				cum += h.counts[len(h.bounds)]
				le := `le="+Inf"`
				if k != "" {
					le = k + "," + le
				}
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", name, le, cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, braced(k), fmtFloat(h.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, braced(k), h.count)
			}
		}
	}
	m.mu.Unlock()
	w.Write(b.Bytes())
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Text renders the registry to a string (tests).
func (m *Metrics) Text() string {
	var b strings.Builder
	m.WriteText(&b)
	return b.String()
}
