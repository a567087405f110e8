package serve

import (
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/lint"
	"tmi3d/internal/tech"
)

// Query-parameter surface of a flow configuration. ParseConfig and
// ConfigQuery are exact inverses over the supported fields, so the load
// generator can construct the same key the daemon will cache under.
// Parsing is strict: an unknown parameter is a 400, not a silent ignore — a
// typoed "clock=" must not quietly serve the default-clock result.

// reservedParams are request-level parameters consumed by the HTTP layer,
// not part of the flow configuration.
var reservedParams = map[string]bool{"timeout_ms": true}

// ParseConfig builds a flow.Config from URL query parameters. Defaults match
// a zero-value flow.Config (gates enforced, Table 12 clock, default
// utilization), except Scale, which is normalized to its effective 1.0 so
// "unset" and "1.0" share a cache key.
func ParseConfig(q url.Values) (flow.Config, error) {
	var cfg flow.Config
	cfg.Scale = 1.0
	seen := map[string]bool{}
	getf := func(name string, dst *float64) error {
		v := q.Get(name)
		seen[name] = true
		if v == "" {
			return nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("param %s: %w", name, err)
		}
		// ParseFloat accepts "NaN" and "Inf", which slip past every range
		// check below (NaN compares false) and would run a whole flow on a
		// value the result encoding then rejects.
		if !finite(f) {
			return fmt.Errorf("param %s must be a finite number, got %q", name, v)
		}
		*dst = f
		return nil
	}

	seen["circuit"] = true
	cfg.Circuit = strings.ToUpper(q.Get("circuit"))
	if err := getf("scale", &cfg.Scale); err != nil {
		return cfg, err
	}

	seen["node"] = true
	var err error
	if cfg.Node, err = tech.ParseNode(q.Get("node")); err != nil {
		return cfg, fmt.Errorf("unknown node %q (45 or 7)", q.Get("node"))
	}
	seen["mode"] = true
	if cfg.Mode, err = tech.ParseMode(q.Get("mode")); err != nil {
		return cfg, fmt.Errorf("unknown mode %q (2d, tmi or tmim)", q.Get("mode"))
	}

	if err := getf("clock", &cfg.ClockPs); err != nil {
		return cfg, err
	}
	if err := getf("util", &cfg.Util); err != nil {
		return cfg, err
	}
	if err := getf("pincap", &cfg.PinCapScale); err != nil {
		return cfg, err
	}
	if err := getf("act_pi", &cfg.Activities.PrimaryInput); err != nil {
		return cfg, err
	}
	if err := getf("act_seq", &cfg.Activities.SeqOutput); err != nil {
		return cfg, err
	}

	seen["wlm2d"] = true
	if v := q.Get("wlm2d"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("param wlm2d: %w", err)
		}
		cfg.Use2DWLM = b
	}

	seen["seed"] = true
	if v := q.Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("param seed: %w", err)
		}
		cfg.Seed = u
	}

	for _, p := range []struct {
		name string
		dst  *lint.GateMode
	}{{"lint", &cfg.Lint}, {"equiv", &cfg.Equiv}} {
		seen[p.name] = true
		switch q.Get(p.name) {
		case "", "enforce":
			*p.dst = lint.GateEnforce
		case "warn":
			*p.dst = lint.GateWarnOnly
		case "off":
			*p.dst = lint.GateOff
		default:
			return cfg, fmt.Errorf("param %s: unknown gate mode %q (enforce, warn or off)", p.name, q.Get(p.name))
		}
	}

	for k := range q {
		if !seen[k] && !reservedParams[k] {
			return cfg, fmt.Errorf("unknown parameter %q", k)
		}
	}
	return cfg, checkConfig(cfg)
}

// checkConfig is the range check of every requested configuration, parsed
// from a query or decoded from a POST body: a known circuit and enum values,
// a positive scale, a utilization in [0, 1] (0 selects the default), and no
// negative clock, pin-cap scale, activity or resistivity scale. Past it, a
// flow would ignore the value, fail late, or report a negative quantity.
func checkConfig(cfg flow.Config) error {
	if cfg.Circuit == "" {
		return fmt.Errorf("circuit is required (one of %s)", strings.Join(circuits.Names, ", "))
	}
	if !slices.Contains(circuits.Names, cfg.Circuit) {
		return fmt.Errorf("unknown circuit %q (one of %s)", cfg.Circuit, strings.Join(circuits.Names, ", "))
	}
	if !(cfg.Scale > 0) {
		return fmt.Errorf("scale must be > 0, got %g", cfg.Scale)
	}
	switch cfg.Node {
	case tech.N45, tech.N7:
	default:
		return fmt.Errorf("unknown node %d (45nm=%d, 7nm=%d)", int(cfg.Node), int(tech.N45), int(tech.N7))
	}
	switch cfg.Mode {
	case tech.Mode2D, tech.ModeTMI, tech.ModeTMIM:
	default:
		return fmt.Errorf("unknown mode %d (2d=%d, tmi=%d, tmim=%d)",
			int(cfg.Mode), int(tech.Mode2D), int(tech.ModeTMI), int(tech.ModeTMIM))
	}
	for _, g := range []struct {
		name string
		mode lint.GateMode
	}{{"lint", cfg.Lint}, {"equiv", cfg.Equiv}} {
		switch g.mode {
		case lint.GateEnforce, lint.GateWarnOnly, lint.GateOff:
		default:
			return fmt.Errorf("unknown %s gate mode %d (enforce=%d, warn=%d, off=%d)",
				g.name, int(g.mode), int(lint.GateEnforce), int(lint.GateWarnOnly), int(lint.GateOff))
		}
	}
	if !(cfg.Util >= 0 && cfg.Util <= 1) {
		return fmt.Errorf("util must be in [0, 1], got %g", cfg.Util)
	}
	for _, v := range []struct {
		name string
		x    float64
	}{
		{"clock", cfg.ClockPs}, {"pincap", cfg.PinCapScale},
		{"act_pi", cfg.Activities.PrimaryInput}, {"act_seq", cfg.Activities.SeqOutput},
	} {
		if !(v.x >= 0) {
			return fmt.Errorf("%s must not be negative, got %g", v.name, v.x)
		}
	}
	for class, x := range cfg.ResistivityScale {
		switch class {
		case tech.ClassM1, tech.ClassLocal, tech.ClassIntermediate, tech.ClassGlobal:
		default:
			return fmt.Errorf("unknown resistivity_scale layer class %d", int(class))
		}
		if !(x >= 0) {
			return fmt.Errorf("resistivity_scale %v must not be negative, got %g", class, x)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ConfigQuery renders a configuration as the query parameters ParseConfig
// parses back to it. Only fields representable as parameters are emitted;
// ResistivityScale (POST-body-only) must be zero.
func ConfigQuery(cfg flow.Config) url.Values {
	q := url.Values{}
	q.Set("circuit", cfg.Circuit)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if cfg.Scale != 0 {
		q.Set("scale", f(cfg.Scale))
	}
	if cfg.Node == tech.N7 {
		q.Set("node", "7")
	} else {
		q.Set("node", "45")
	}
	switch cfg.Mode {
	case tech.ModeTMI:
		q.Set("mode", "tmi")
	case tech.ModeTMIM:
		q.Set("mode", "tmim")
	default:
		q.Set("mode", "2d")
	}
	if cfg.ClockPs != 0 {
		q.Set("clock", f(cfg.ClockPs))
	}
	if cfg.Util != 0 {
		q.Set("util", f(cfg.Util))
	}
	if cfg.PinCapScale != 0 {
		q.Set("pincap", f(cfg.PinCapScale))
	}
	if cfg.Activities.PrimaryInput != 0 {
		q.Set("act_pi", f(cfg.Activities.PrimaryInput))
	}
	if cfg.Activities.SeqOutput != 0 {
		q.Set("act_seq", f(cfg.Activities.SeqOutput))
	}
	if cfg.Use2DWLM {
		q.Set("wlm2d", "true")
	}
	if cfg.Seed != 0 {
		q.Set("seed", strconv.FormatUint(cfg.Seed, 10))
	}
	switch cfg.Lint {
	case lint.GateWarnOnly:
		q.Set("lint", "warn")
	case lint.GateOff:
		q.Set("lint", "off")
	}
	switch cfg.Equiv {
	case lint.GateWarnOnly:
		q.Set("equiv", "warn")
	case lint.GateOff:
		q.Set("equiv", "off")
	}
	return q
}
