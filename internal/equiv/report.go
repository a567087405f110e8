package equiv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Mismatch is one disproved compare point with its counterexample.
type Mismatch struct {
	// Point labels the compare point ("output <po>" or "register <key>").
	Point string
	// RegisterA/RegisterB name the instance pair for register points.
	RegisterA, RegisterB string
	// Inputs is the distinguishing primary-input vector.
	Inputs map[string]bool
	// StateA/StateB are the forced register states (per design, by DFF
	// instance name) under which the designs diverge.
	StateA, StateB map[string]bool
	// ValA/ValB are the values the two designs compute at the point.
	ValA, ValB bool
	// Replayed reports whether the vector was replayed through internal/sim.
	Replayed bool
	// Confirmed reports whether the gate-level replay reproduced the AIG
	// values at the compare point.
	Confirmed bool
	// DivergingNet is the earliest (minimum logic depth) common-named net
	// whose replayed values differ, with its per-design values.
	DivergingNet       string
	DivergeA, DivergeB bool
	// Note carries diagnosis problems (e.g. replay errors).
	Note string
}

// Report is the outcome of one equivalence check, mirroring lint.Report's
// text/JSON surface.
type Report struct {
	// Subject identifies the checked pair, e.g. "fpu post-synth vs fpu post-place".
	Subject      string
	NameA, NameB string

	// Points is the number of compare points (POs + matched register pairs).
	Points int
	// Structural counts points proved by AIG structural hashing alone.
	Structural int
	// BySim counts points disproved directly by random simulation.
	BySim int
	// BySAT counts points that needed a SAT call.
	BySAT int
	// Failed counts disproved points (diagnosed or not).
	Failed int

	SATConflicts int64
	SATDecisions int64

	// Unmatched lists registers with no correspondence partner.
	Unmatched []string
	// MissingPorts lists PI/PO names present in only one design.
	MissingPorts []string
	// Mismatches carries up to maxDiagnosed counterexamples.
	Mismatches []Mismatch
}

// Equivalent reports whether the check proved the designs equal: every
// compare point proved and every register and output port matched.
func (r *Report) Equivalent() bool {
	return r.Failed == 0 && len(r.Unmatched) == 0 && !r.missingPOs()
}

func (r *Report) missingPOs() bool {
	for _, p := range r.MissingPorts {
		if len(p) >= 6 && p[:6] == "output" {
			return true
		}
	}
	return false
}

// Err returns nil when equivalent, else a one-line summary error.
func (r *Report) Err() error {
	if r.Equivalent() {
		return nil
	}
	return fmt.Errorf("equiv: %s: %d of %d compare points failed, %d unmatched registers, %d port mismatches",
		r.Subject, r.Failed, r.Points, len(r.Unmatched), len(r.MissingPorts))
}

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) {
	verdict := "EQUIVALENT"
	if !r.Equivalent() {
		verdict = "NOT EQUIVALENT"
	}
	fmt.Fprintf(w, "equiv check: %s — %s\n", r.Subject, verdict)
	fmt.Fprintf(w, "  compare points %d: structural %d, by-sim %d, by-SAT %d, failed %d\n",
		r.Points, r.Structural, r.BySim, r.BySAT, r.Failed)
	if r.BySAT > 0 {
		fmt.Fprintf(w, "  SAT effort: %d decisions, %d conflicts\n", r.SATDecisions, r.SATConflicts)
	}
	for _, p := range r.MissingPorts {
		fmt.Fprintf(w, "  port mismatch: %s\n", p)
	}
	for _, u := range r.Unmatched {
		fmt.Fprintf(w, "  unmatched register: %s\n", u)
	}
	for i := range r.Mismatches {
		m := &r.Mismatches[i]
		fmt.Fprintf(w, "  mismatch at %s: A=%v B=%v\n", m.Point, m.ValA, m.ValB)
		if m.RegisterA != "" && m.RegisterA != m.RegisterB {
			fmt.Fprintf(w, "    register pair: %s ~ %s\n", m.RegisterA, m.RegisterB)
		}
		if len(m.Inputs) > 0 {
			fmt.Fprintf(w, "    inputs: %s\n", vectorString(m.Inputs))
		}
		if len(m.StateA) > 0 {
			fmt.Fprintf(w, "    state: %s\n", vectorString(m.StateA))
		}
		if m.Replayed {
			status := "replay confirms divergence"
			if !m.Confirmed {
				status = "replay did not confirm point values"
			}
			fmt.Fprintf(w, "    %s", status)
			if m.DivergingNet != "" {
				fmt.Fprintf(w, "; first diverging net %q (A=%v B=%v)",
					m.DivergingNet, m.DivergeA, m.DivergeB)
			}
			fmt.Fprintln(w)
		}
		if m.Note != "" {
			fmt.Fprintf(w, "    note: %s\n", m.Note)
		}
	}
	if r.Failed > len(r.Mismatches) {
		fmt.Fprintf(w, "  (%d further failing points not diagnosed)\n", r.Failed-len(r.Mismatches))
	}
}

// vectorString renders a name→bool map deterministically as name=0/1 pairs.
func vectorString(v map[string]bool) string {
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		bit := "0"
		if v[n] {
			bit = "1"
		}
		out += n + "=" + bit
	}
	return out
}

type mismatchJSON struct {
	Point        string          `json:"point"`
	RegisterA    string          `json:"register_a,omitempty"`
	RegisterB    string          `json:"register_b,omitempty"`
	Inputs       map[string]bool `json:"inputs,omitempty"`
	StateA       map[string]bool `json:"state_a,omitempty"`
	StateB       map[string]bool `json:"state_b,omitempty"`
	ValA         bool            `json:"val_a"`
	ValB         bool            `json:"val_b"`
	Replayed     bool            `json:"replayed"`
	Confirmed    bool            `json:"confirmed"`
	DivergingNet string          `json:"diverging_net,omitempty"`
	DivergeA     bool            `json:"diverge_a,omitempty"`
	DivergeB     bool            `json:"diverge_b,omitempty"`
	Note         string          `json:"note,omitempty"`
}

type reportJSON struct {
	Subject      string         `json:"subject"`
	DesignA      string         `json:"design_a"`
	DesignB      string         `json:"design_b"`
	Equivalent   bool           `json:"equivalent"`
	Points       int            `json:"compare_points"`
	Structural   int            `json:"proved_structural"`
	BySim        int            `json:"disproved_by_sim"`
	BySAT        int            `json:"decided_by_sat"`
	Failed       int            `json:"failed"`
	SATDecisions int64          `json:"sat_decisions"`
	SATConflicts int64          `json:"sat_conflicts"`
	Unmatched    []string       `json:"unmatched_registers,omitempty"`
	MissingPorts []string       `json:"missing_ports,omitempty"`
	Mismatches   []mismatchJSON `json:"mismatches,omitempty"`
}

// MarshalJSON renders the machine-readable form used by `tmi3d equiv -json`.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Subject: r.Subject, DesignA: r.NameA, DesignB: r.NameB,
		Equivalent: r.Equivalent(), Points: r.Points,
		Structural: r.Structural, BySim: r.BySim, BySAT: r.BySAT,
		Failed:       r.Failed,
		SATDecisions: r.SATDecisions, SATConflicts: r.SATConflicts,
		Unmatched: r.Unmatched, MissingPorts: r.MissingPorts,
	}
	for i := range r.Mismatches {
		m := &r.Mismatches[i]
		out.Mismatches = append(out.Mismatches, mismatchJSON{
			Point: m.Point, RegisterA: m.RegisterA, RegisterB: m.RegisterB,
			Inputs: m.Inputs, StateA: m.StateA, StateB: m.StateB,
			ValA: m.ValA, ValB: m.ValB,
			Replayed: m.Replayed, Confirmed: m.Confirmed,
			DivergingNet: m.DivergingNet, DivergeA: m.DivergeA, DivergeB: m.DivergeB,
			Note: m.Note,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a report written by MarshalJSON, so a Report
// embedded in a serialized flow result survives a store round-trip. The
// derived "equivalent" field is recomputed from the restored counts rather
// than stored.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in reportJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	r.Subject, r.NameA, r.NameB = in.Subject, in.DesignA, in.DesignB
	r.Points, r.Structural, r.BySim, r.BySAT = in.Points, in.Structural, in.BySim, in.BySAT
	r.Failed = in.Failed
	r.SATDecisions, r.SATConflicts = in.SATDecisions, in.SATConflicts
	r.Unmatched, r.MissingPorts = in.Unmatched, in.MissingPorts
	r.Mismatches = nil
	for _, m := range in.Mismatches {
		r.Mismatches = append(r.Mismatches, Mismatch{
			Point: m.Point, RegisterA: m.RegisterA, RegisterB: m.RegisterB,
			Inputs: m.Inputs, StateA: m.StateA, StateB: m.StateB,
			ValA: m.ValA, ValB: m.ValB,
			Replayed: m.Replayed, Confirmed: m.Confirmed,
			DivergingNet: m.DivergingNet, DivergeA: m.DivergeA, DivergeB: m.DivergeB,
			Note: m.Note,
		})
	}
	return nil
}

// WriteJSON writes the indented JSON report.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
