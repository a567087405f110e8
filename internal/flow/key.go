package flow

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tmi3d/internal/tech"
)

// Key returns the canonical cache key of a configuration: two configs share a
// key exactly when Run would produce identical results. Every result-affecting
// field participates at full precision — floats are formatted with
// strconv.FormatFloat(-1), which round-trips, so sweep points that differ by
// less than a printable unit (e.g. Fig 4 clocks 0.4 ps apart) never collide.
func (c Config) Key() string {
	return c.keyString(physicalKeyTerms) + c.keyString(gateKeyTerms)
}

// keyTerm is one labeled field of the key.
type keyTerm struct{ label, field string }

// physicalKeyTerms are the fields that determine the physical design, in key
// order: the input of DeriveSeed.
var physicalKeyTerms = []keyTerm{
	{"", "Circuit"}, {"|scale=", "Scale"}, {"|node=", "Node"}, {"|mode=", "Mode"},
	{"|clock=", "ClockPs"}, {"|util=", "Util"}, {"|pincap=", "PinCapScale"},
	{"|res=", "ResistivityScale"}, {"|wlm2d=", "Use2DWLM"}, {"|act=", "Activities"},
	{"|seed=", "Seed"},
}

// gateKeyTerms close the key. Gate modes never change the layout, but they
// change the Result (reports attached or not), so cached entries must not
// alias.
var gateKeyTerms = []keyTerm{{"|lint=", "Lint"}, {"|equiv=", "Equiv"}}

// keyString renders the given terms.
func (c Config) keyString(terms []keyTerm) string {
	var b strings.Builder
	for _, t := range terms {
		b.WriteString(t.label)
		b.WriteString(c.FieldKeyTerm(t.field))
	}
	return b.String()
}

// DeriveSeed mixes the study seed with the physical configuration so every
// distinct flow gets its own RNG stream, which the equivalence gates' random
// simulation draws from (placement and routing are deterministic and draw
// none). The derivation is a pure function of the config, which is what
// makes parallel execution bit-identical to serial: no stage consumes
// randomness whose value depends on scheduling order. Gate modes (Lint,
// Equiv) are excluded. ClockPs is excluded too (the clock term is pinned to
// 0): the override only steers the post-placement stages, so sweep points
// share the setup value, and with it every upstream artifact, of the
// per-stage cache (internal/stage).
func (c Config) DeriveSeed() uint64 {
	c.ClockPs = 0
	h := fnv.New64a()
	h.Write([]byte(c.keyString(physicalKeyTerms)))
	return h.Sum64()
}

// FieldKeyTerm renders one Config field's value in the canonical form of the
// cache key (strconv round-trip floats, sorted map entries), the basis of
// Key, DeriveSeed and the staged engine's per-stage keys. It panics on a
// field name that is not a Config field — TestDAGMatchesStageKeys keeps the
// engine's key sets inside this domain.
func (c Config) FieldKeyTerm(field string) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch field {
	case "Circuit":
		return c.Circuit
	case "Scale":
		return f(c.Scale)
	case "Node":
		return strconv.Itoa(int(c.Node))
	case "Mode":
		return strconv.Itoa(int(c.Mode))
	case "ClockPs":
		return f(c.ClockPs)
	case "Util":
		return f(c.Util)
	case "PinCapScale":
		return f(c.PinCapScale)
	case "ResistivityScale":
		classes := make([]int, 0, len(c.ResistivityScale))
		for cl := range c.ResistivityScale {
			classes = append(classes, int(cl))
		}
		sort.Ints(classes)
		var b strings.Builder
		for _, cl := range classes {
			b.WriteString(strconv.Itoa(cl))
			b.WriteByte(':')
			b.WriteString(f(c.ResistivityScale[tech.LayerClass(cl)]))
			b.WriteByte(',')
		}
		return b.String()
	case "Use2DWLM":
		return strconv.FormatBool(c.Use2DWLM)
	case "Activities":
		return f(c.Activities.PrimaryInput) + "/" + f(c.Activities.SeqOutput)
	case "Seed":
		return strconv.FormatUint(c.Seed, 10)
	case "Lint":
		return strconv.Itoa(int(c.Lint))
	case "Equiv":
		return strconv.Itoa(int(c.Equiv))
	default:
		panic("flow: FieldKeyTerm: unknown Config field " + field)
	}
}

// StageTime is the wall-clock time one flow stage accumulated. The lint and
// equiv gates run beside the pipeline stages, so stage times can overlap:
// their sum may exceed the flow's wall time, and a stage's share of the sum
// (core.Study's stage report, the benchmark's gate share) is a share of
// accumulated time, not of the wall clock.
type StageTime struct {
	Stage string
	D     time.Duration
	// Workers is always 0: no stage runs worker goroutines of its own.
	//
	// Deprecated: kept only because the benchmark harness still reads it;
	// the next benchmark change removes it.
	Workers int
}

// profile accumulates wall-clock per named stage, preserving first-seen
// order so reports read in pipeline order. Stages that run more than once
// (route, opt, sta in the ECO loop, and the gates) accumulate. One profile
// spans an Execution, whose gate goroutines add to it too; timing is
// observational only.
type profile struct {
	mu    sync.Mutex
	order []string
	acc   map[string]time.Duration
}

func newProfile() *profile {
	return &profile{acc: map[string]time.Duration{}}
}

// add records a stage interval.
func (t *profile) add(stage string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.acc[stage]; !ok {
		t.order = append(t.order, stage)
	}
	t.acc[stage] += d
}

// times returns the accumulated per-stage costs in first-seen order.
func (t *profile) times() []StageTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageTime, 0, len(t.order))
	for _, s := range t.order {
		out = append(out, StageTime{Stage: s, D: t.acc[s]})
	}
	return out
}
