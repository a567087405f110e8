package sta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"tmi3d/internal/jsonwire"
)

// JSON codec for Result. Timing vectors legitimately carry non-finite
// values — unreached nets keep their -Inf initial arrival, and WNS starts at
// +Inf before endpoints fold in — but encoding/json rejects non-finite
// floats outright. Result therefore implements its own codec: non-finite
// values travel as the strings "+Inf", "-Inf" and "NaN", finite values as
// ordinary numbers, and a decoded Result re-encodes to identical bytes.

// Finite clamps a possibly non-finite timing value for transport in a plain
// JSON field (flow.Result.WNS, opt.Stats.FinalWNS): finite values pass
// through untouched, so byte identity holds everywhere timing is real;
// ±Inf — the unconstrained-design sentinel — clamps to ±math.MaxFloat64 and
// NaN to 0, so a degenerate design still encodes instead of failing
// json.Marshal outright.
func Finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// nfFloat is a float64 whose JSON form tolerates non-finite values.
type nfFloat float64

func (f nfFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *nfFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = nfFloat(math.NaN())
		case "+Inf":
			*f = nfFloat(math.Inf(1))
		case "-Inf":
			*f = nfFloat(math.Inf(-1))
		default:
			return fmt.Errorf("sta: invalid non-finite float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = nfFloat(v)
	return nil
}

// nfVec is a timing vector whose JSON form tolerates non-finite entries. It
// encodes and decodes the whole vector in one pass to exactly the bytes of
// the equivalent []nfFloat — finite entries as encoding/json writes a
// float64, non-finite ones as "+Inf", "-Inf" and "NaN" — so encoding/json
// compacts (and, decoding, re-scans) one value per vector instead of one per
// element.
type nfVec []float64

func (v nfVec) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 2+8*len(v))
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNF(b, x)
	}
	return append(b, ']'), nil
}

// appendNF appends one vector entry in nfFloat's wire form.
func appendNF(b []byte, x float64) []byte {
	switch {
	case math.IsNaN(x):
		return append(b, `"NaN"`...)
	case math.IsInf(x, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(x, -1):
		return append(b, `"-Inf"`...)
	}
	// encoding/json's float64 format: shortest 'f', or 'e' outside
	// [1e-6, 1e21), with a two-digit negative exponent shortened (e-09 → e-9).
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON restores a vector written by MarshalJSON. Only encoding/json
// calls it (Result.UnmarshalJSON reads canonical vectors itself and hands any
// other spelling to json.Unmarshal), and encoding/json has validated the
// whole document before it calls an Unmarshaler, so b is one well-formed
// JSON value; entries that are neither numbers nor the non-finite strings
// are rejected, as nfFloat rejects them.
func (v *nfVec) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if string(b) == "null" {
		*v = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("sta: timing vector %.32q is not a JSON array", b)
	}
	rest := bytes.TrimSpace(b[1 : len(b)-1])
	if len(rest) == 0 {
		*v = nfVec{}
		return nil
	}
	out := make(nfVec, 0, bytes.Count(rest, []byte{','})+1)
	for {
		tok := rest
		i := bytes.IndexByte(rest, ',')
		if i >= 0 {
			tok = rest[:i]
		}
		x, err := parseNF(bytes.TrimSpace(tok))
		if err != nil {
			return err
		}
		out = append(out, x)
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	*v = out
	return nil
}

// parseNF decodes one vector entry.
func parseNF(tok []byte) (float64, error) {
	switch {
	case len(tok) == 0:
		return 0, errors.New("sta: empty timing vector entry")
	case tok[0] == '-' || (tok[0] >= '0' && tok[0] <= '9'):
		x, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return 0, fmt.Errorf("sta: timing value %q: %w", tok, err)
		}
		return x, nil
	case string(tok) == "null":
		return 0, nil // encoding/json leaves a null float at zero
	}
	// Strings: the three sentinels, escaped spellings included, through the
	// scalar codec.
	var f nfFloat
	if err := f.UnmarshalJSON(tok); err != nil {
		return 0, err
	}
	return float64(f), nil
}

// resultJSON is the stable wire shape of a Result.
type resultJSON struct {
	Arrival     nfVec   `json:"arrival_ps"`
	Slew        nfVec   `json:"slew_ps"`
	Required    nfVec   `json:"required_ps"`
	Load        nfVec   `json:"load_ff"`
	WNS         nfFloat `json:"wns_ps"`
	TNS         nfFloat `json:"tns_ps"`
	HoldWNS     nfFloat `json:"hold_wns_ps"`
	CriticalNet int     `json:"critical_net"`
	// ClockPs is a plain float: it is the analysis clock constraint, copied
	// from the validated config, never a propagated timing value.
	ClockPs float64 `json:"clock_ps"`
}

// MarshalJSON encodes the result with non-finite-safe floats.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Arrival:     nfVec(r.Arrival),
		Slew:        nfVec(r.Slew),
		Required:    nfVec(r.Required),
		Load:        nfVec(r.Load),
		WNS:         nfFloat(r.WNS),
		TNS:         nfFloat(r.TNS),
		HoldWNS:     nfFloat(r.HoldWNS),
		CriticalNet: r.CriticalNet,
		ClockPs:     r.ClockPs,
	})
}

// UnmarshalJSON restores a result written by MarshalJSON, replacing r. The
// canonical bytes MarshalJSON writes decode in one pass (decodeResult); any
// other spelling decodes through encoding/json into resultJSON, with the
// same result.
func (r *Result) UnmarshalJSON(b []byte) error {
	out, ok := decodeResult(b)
	if !ok {
		var err error
		if out, err = decodeResultJSON(b); err != nil {
			return err
		}
	}
	*r = *out
	return nil
}

// decodeResultJSON decodes any spelling of a result through encoding/json.
func decodeResultJSON(b []byte) (*Result, error) {
	var in resultJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	return &Result{
		Arrival:     in.Arrival,
		Slew:        in.Slew,
		Required:    in.Required,
		Load:        in.Load,
		WNS:         float64(in.WNS),
		TNS:         float64(in.TNS),
		HoldWNS:     float64(in.HoldWNS),
		CriticalNet: in.CriticalNet,
		ClockPs:     in.ClockPs,
	}, nil
}

// decodeResult reads the canonical bytes of a result in one pass, or
// reports false.
func decodeResult(b []byte) (*Result, bool) {
	r := jsonwire.NewReader(b)
	out := &Result{}
	r.Delim('{')
	r.Key("arrival_ps")
	out.Arrival = readVec(r)
	r.Delim(',')
	r.Key("slew_ps")
	out.Slew = readVec(r)
	r.Delim(',')
	r.Key("required_ps")
	out.Required = readVec(r)
	r.Delim(',')
	r.Key("load_ff")
	out.Load = readVec(r)
	r.Delim(',')
	r.Key("wns_ps")
	out.WNS = readNF(r)
	r.Delim(',')
	r.Key("tns_ps")
	out.TNS = readNF(r)
	r.Delim(',')
	r.Key("hold_wns_ps")
	out.HoldWNS = readNF(r)
	r.Delim(',')
	r.Key("critical_net")
	out.CriticalNet = r.Int()
	r.Delim(',')
	r.Key("clock_ps")
	out.ClockPs = r.Float()
	r.Delim('}')
	return out, r.Done()
}

// readVec reads a canonical timing vector: null reads as nil, [] as an empty
// non-nil vector.
func readVec(r *jsonwire.Reader) []float64 {
	if r.Null() {
		return nil
	}
	r.Delim('[')
	out := make([]float64, 0, r.FlatLen())
	for n := 0; r.More(']', n); n++ {
		out = append(out, readNF(r))
	}
	return out
}

// readNF reads one entry in nfFloat's canonical form: a number, or exactly
// "+Inf", "-Inf" or "NaN".
func readNF(r *jsonwire.Reader) float64 {
	if r.Peek() != '"' {
		return r.Float()
	}
	switch string(r.Str()) {
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	case "NaN":
		return math.NaN()
	}
	r.Fail()
	return 0
}
