package lint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unicode/utf8"

	"tmi3d/internal/binwire"
	"tmi3d/internal/jsonwire"
)

// FuzzReportEncode holds AppendJSON to json.Marshal, the report's
// MarshalJSON, on reports whose every string is fuzzed — escaped and
// invalid-UTF-8 ones included, HTML-escaped as json.Marshal escapes them —
// with any severity, an empty or set hint, and nil or empty diagnostics. A
// severity with no name, or text that is not valid UTF-8, fails both. The
// binary form takes every one of them and reads it back exactly.
func FuzzReportEncode(f *testing.F) {
	f.Add("FPU/45nm/T-MI post-route", "ERC-DANGLE", "net n_154", "driven net has no sinks", "prune it", 1, uint8(2))
	f.Add(`<a&"b\`, "R\x7f", "w\xe2\x80\xa8", "m\xff", "", 2, uint8(1))
	f.Add("", "", "", "", "", 9, uint8(0))
	f.Add("s", "R", "w", "m", "", 7, uint8(1))
	f.Add("sub\xc3", "R", "w", "m", "h\x80", 1, uint8(2))
	f.Add("s", "R", "w", "m", "\xed\xa0\x80", 0, uint8(3))
	f.Fuzz(func(t *testing.T, subject, rule, where, message, hint string, sev int, n uint8) {
		r := &Report{Subject: subject}
		if n%4 == 1 {
			r.Diags = []Diagnostic{}
		}
		for i := 0; i < int(n%4); i++ {
			r.Diags = append(r.Diags, Diagnostic{Rule: rule, Severity: Severity(sev + i), Where: where, Message: message, Hint: hint})
		}
		w := jsonwire.NewWriter(nil)
		r.AppendJSON(w)
		want, err := json.Marshal(r)
		if w.OK() != (err == nil) {
			t.Fatalf("AppendJSON ok %v, encoding/json error %v", w.OK(), err)
		}
		utf := utf8.ValidString(subject)
		if len(r.Diags) > 0 {
			for _, s := range []string{rule, where, message, hint} {
				utf = utf && utf8.ValidString(s)
			}
		}
		if !utf && w.OK() {
			t.Fatalf("AppendJSON wrote text that is not UTF-8: %q", w.Bytes())
		}
		if err == nil && !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("AppendJSON writes\n%s\nencoding/json\n%s", w.Bytes(), want)
		}
		rd := binwire.NewReader(binaryOf(r))
		var back Report
		back.ReadBinary(rd)
		if !rd.Done() || !reflect.DeepEqual(&back, r) {
			t.Fatalf("binary round trip of %+v gives %+v (done %v)", r, back, rd.Done())
		}
	})
}
