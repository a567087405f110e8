// Package lint is the design-integrity engine of the flow — the role the
// paper delegates to sign-off checkers: Encounter's netlist sanity passes
// (electrical rule checks), the library QA built into Encounter Library
// Characterizer, and the Calibre DRC roll-up over the cell library.
//
// The engine runs rule-based checks over the three design representations —
// gate-level netlists (ERC-*), characterized liberty libraries (LIB-*) and
// procedural cell layouts (LAY-*/TMI-*) — and collects structured
// diagnostics into a Report with text and JSON renderers. Every diagnostic
// carries a stable rule ID, a severity, a location, a message and a fix
// hint, so the flow can gate on them and tools can consume them.
package lint

import (
	"encoding/json"
	"fmt"
	"io"

	"tmi3d/internal/jsonwire"
)

// Severity ranks diagnostics. The flow's invariant gates fail on Error;
// Warning marks conditions that are legal but suspicious (the generators
// intentionally leave unused carries dangling, exactly as RTL does before
// synthesis pruning); Info is advisory.
type Severity int

// Severity levels, ascending.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = map[Severity]string{Info: "info", Warning: "warning", Error: "error"}

// severityByName inverts severityNames.
var severityByName = map[string]Severity{"info": Info, "warning": Warning, "error": Error}

func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, ok := severityByName[name]
	if !ok {
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	*s = sev
	return nil
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Where locates the finding: a net, instance, cell, pin or arc name.
	Where   string `json:"where"`
	Message string `json:"message"`
	// Hint suggests the fix, taken from the rule registry.
	Hint string `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%-7s %-15s %s: %s", d.Severity, d.Rule, d.Where, d.Message)
}

// Rule is the registry entry for one check: its stable ID, default severity,
// one-line summary and fix hint. The registry is the single source for the
// DESIGN.md rule table and the CLI's rule listing.
type Rule struct {
	ID       string   `json:"id"`
	Severity Severity `json:"severity"`
	Summary  string   `json:"summary"`
	Hint     string   `json:"hint"`
}

var registry = []Rule{
	{"ERC-STRUCT", Error,
		"netlist structural integrity: pin/net indices in range, instances have pins, every instance pin is recorded on its net, port maps agree with net connectivity",
		"rebuild the netlist through Design.AddInstance/AddPI/AddPO; do not mutate Nets/Pins directly"},
	{"ERC-MULTIDRIVE", Error,
		"net driven by more than one output pin or primary input",
		"keep exactly one driver per net; insert a mux or rename the colliding net"},
	{"ERC-FLOATINPUT", Error,
		"instance input or primary output sinks a net that has no driver",
		"drive the net from a gate output or declare it a primary input"},
	{"ERC-DANGLE", Warning,
		"net with a driver but no sinks (or fully disconnected net) that is not a primary output",
		"prune the unused logic cone or connect the net to a sink"},
	{"ERC-LOOP", Error,
		"combinational feedback loop (cycle through non-sequential cells)",
		"break the cycle with a flip-flop or restructure the logic"},
	{"ERC-UNMAPPED", Error,
		"instance without a bound library cell in a post-synthesis netlist",
		"run technology mapping (synth.Run) or bind CellName to a library cell"},
	{"ERC-FANOUT", Warning,
		"net fanout above the per-node ceiling",
		"split the net with a buffer tree (synth fanout buffering handles this)"},
	{"ERC-UNREACHABLE", Warning,
		"instances with no path to any primary output",
		"prune the dead cone or add the missing primary output"},
	{"LIB-NOCELL", Error,
		"design function or bound cell that does not resolve to a liberty cell",
		"add the function to cellgen's template registry and re-characterize"},
	{"LIB-PINSET", Error,
		"pin set mismatch between the cellgen function definition and the liberty cell (or an instance pin not on the cell)",
		"regenerate the library so liberty groups match the cellgen templates"},
	{"LIB-MONOTONE", Error,
		"NLDM delay/slew table not monotone non-decreasing in load, or axes not ascending",
		"re-characterize the arc; non-monotone tables indicate a simulation artifact"},
	{"LIB-CAP", Error,
		"non-positive pin capacitance, cell area, or negative leakage",
		"re-extract the cell; capacitance and area must be positive"},
	{"LAY-DRC", Error,
		"design-rule violation in a procedural cell layout (width/spacing/MIV landing)",
		"fix the generator geometry; every library layout must be DRC-clean"},
	{"TMI-MIVCOUNT", Error,
		"folded cell's MIV count differs from the tier-spanning nets of its transistor netlist",
		"each non-supply net touching both tiers needs exactly one MIV (direct S/D or via)"},
	{"TMI-TIER", Error,
		"tier assignment violated: PMOS terminals must sit on the bottom tier, NMOS on top, rails on their own tiers, no supply MIVs",
		"restore the PMOS-bottom/NMOS-top folding convention of Section 3.1"},
}

var registryByID = func() map[string]Rule {
	m := make(map[string]Rule, len(registry))
	for _, r := range registry {
		m[r.ID] = r
	}
	return m
}()

// Report collects the diagnostics of one lint subject (a design at a flow
// stage, a library, a cell set).
type Report struct {
	Subject string
	Diags   []Diagnostic
}

// NewReport creates an empty report for a subject.
func NewReport(subject string) *Report { return &Report{Subject: subject} }

// add appends a diagnostic for a registered rule, using the registry's
// severity and hint.
func (r *Report) add(rule, where, format string, args ...any) {
	info, ok := registryByID[rule]
	if !ok {
		panic(fmt.Sprintf("lint: unregistered rule %q", rule))
	}
	r.Diags = append(r.Diags, Diagnostic{
		Rule:     rule,
		Severity: info.Severity,
		Where:    where,
		Message:  fmt.Sprintf(format, args...),
		Hint:     info.Hint,
	})
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Errors returns the number of Error-severity diagnostics.
func (r *Report) Errors() int { return r.Count(Error) }

// Warnings returns the number of Warning-severity diagnostics.
func (r *Report) Warnings() int { return r.Count(Warning) }

// Clean reports whether the subject passed: no Error-severity diagnostics.
func (r *Report) Clean() bool { return r.Errors() == 0 }

// Err converts the report into an error: nil when Clean, otherwise an error
// naming the failing rules and the first few diagnostics.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	const show = 4
	msg := fmt.Sprintf("%s: %d lint errors", r.Subject, r.Errors())
	shown := 0
	for _, d := range r.Diags {
		if d.Severity < Error {
			continue
		}
		if shown == show {
			msg += "; ..."
			break
		}
		msg += fmt.Sprintf("; [%s] %s: %s", d.Rule, d.Where, d.Message)
		shown++
	}
	return fmt.Errorf("%s", msg)
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "lint %s: %d errors, %d warnings\n",
		r.Subject, r.Errors(), r.Warnings()); err != nil {
		return err
	}
	for _, d := range r.Diags {
		if _, err := fmt.Fprintf(w, "  %s\n", d); err != nil {
			return err
		}
		if d.Hint != "" {
			if _, err := fmt.Fprintf(w, "          hint: %s\n", d.Hint); err != nil {
				return err
			}
		}
	}
	return nil
}

// reportJSON is the stable JSON shape of a report.
type reportJSON struct {
	Subject     string       `json:"subject"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
	Clean       bool         `json:"clean"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// MarshalJSON renders the report with summary counts.
func (r *Report) MarshalJSON() ([]byte, error) {
	diags := r.Diags
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.Marshal(reportJSON{
		Subject:     r.Subject,
		Errors:      r.Errors(),
		Warnings:    r.Warnings(),
		Clean:       r.Clean(),
		Diagnostics: diags,
	})
}

// AppendJSON appends the bytes MarshalJSON writes for r in one pass,
// strings HTML-escaped as json.Marshal escapes them.
func (r *Report) AppendJSON(w *jsonwire.Writer) {
	w.Raw(`{"subject":`)
	w.String(r.Subject, true)
	w.Raw(`,"errors":`)
	w.Int(r.Errors())
	w.Raw(`,"warnings":`)
	w.Int(r.Warnings())
	w.Raw(`,"clean":`)
	w.Bool(r.Clean())
	w.Raw(`,"diagnostics":[`)
	for i := range r.Diags {
		d := &r.Diags[i]
		if i > 0 {
			w.Byte(',')
		}
		w.Raw(`{"rule":`)
		w.String(d.Rule, true)
		w.Raw(`,"severity":`)
		w.String(d.Severity.String(), true)
		w.Raw(`,"where":`)
		w.String(d.Where, true)
		w.Raw(`,"message":`)
		w.String(d.Message, true)
		if d.Hint != "" {
			w.Raw(`,"hint":`)
			w.String(d.Hint, true)
		}
		w.Byte('}')
	}
	w.Raw(`]}`)
}

// WireSize estimates the bytes AppendJSON writes for r.
func (r *Report) WireSize() int { return 96 + 192*len(r.Diags) }

// UnmarshalJSON restores a report written by MarshalJSON, replacing r. The
// canonical bytes MarshalJSON writes decode in one pass (decodeReport); any
// other spelling decodes through encoding/json into reportJSON, with the
// same result. The summary counts are derived, so both read and drop them.
func (r *Report) UnmarshalJSON(b []byte) error {
	if out, ok := decodeReport(b); ok {
		*r = *out
		return nil
	}
	var rj reportJSON
	if err := json.Unmarshal(b, &rj); err != nil {
		return err
	}
	*r = Report{Subject: rj.Subject, Diags: rj.Diagnostics}
	return nil
}

// decodeReport reads the canonical bytes of a report in one pass, or reports
// false. Rule IDs, locations, messages and hints repeat across diagnostics,
// so each distinct string is made once.
func decodeReport(b []byte) (*Report, bool) {
	r := jsonwire.NewReader(b)
	strs := map[string]string{}
	str := func() string {
		b := r.Str()
		if s, ok := strs[string(b)]; ok {
			return s
		}
		s := string(b)
		strs[s] = s
		return s
	}
	out := &Report{}
	r.Delim('{')
	r.Key("subject")
	out.Subject = str()
	r.Delim(',')
	r.Key("errors")
	r.Int()
	r.Delim(',')
	r.Key("warnings")
	r.Int()
	r.Delim(',')
	r.Key("clean")
	r.Bool()
	r.Delim(',')
	r.Key("diagnostics")
	if !r.Null() {
		r.Delim('[')
		out.Diags = []Diagnostic{}
		for n := 0; r.More(']', n); n++ {
			var d Diagnostic
			r.Delim('{')
			r.Key("rule")
			d.Rule = str()
			r.Delim(',')
			r.Key("severity")
			sev, ok := severityByName[string(r.Str())]
			if !ok {
				r.Fail()
			}
			d.Severity = sev
			r.Delim(',')
			r.Key("where")
			d.Where = str()
			r.Delim(',')
			r.Key("message")
			d.Message = str()
			if r.Field("hint", 1) {
				d.Hint = str()
			}
			r.Delim('}')
			out.Diags = append(out.Diags, d)
		}
	}
	r.Delim('}')
	return out, r.Done()
}

// GateMode selects how the flow's invariant gates react to lint results.
type GateMode int

// Gate modes. The zero value enforces, so every flow run is checked unless
// explicitly relaxed.
const (
	// GateEnforce fails the flow stage on any Error-severity diagnostic.
	GateEnforce GateMode = iota
	// GateWarnOnly collects reports on the Result without failing.
	GateWarnOnly
	// GateOff skips the checks entirely.
	GateOff
)

func (m GateMode) String() string {
	switch m {
	case GateEnforce:
		return "enforce"
	case GateWarnOnly:
		return "warn-only"
	case GateOff:
		return "off"
	}
	return fmt.Sprintf("gatemode(%d)", int(m))
}
