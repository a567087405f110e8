package lint

import (
	"bytes"
	"testing"

	"tmi3d/internal/binwire"
)

// binaryOf returns r's binary form.
func binaryOf(r *Report) []byte {
	w := binwire.NewWriter(nil)
	r.WriteBinary(w)
	return w.Bytes()
}

// FuzzReportDecode feeds arbitrary bytes to ReadBinary, seeded with the
// binary form of real-looking reports and with damaged copies: it must
// neither panic nor allocate more than the input describes, and whatever it
// accepts must re-encode to exactly the bytes it read.
func FuzzReportDecode(f *testing.F) {
	full := binaryOf(&Report{Subject: "FPU/45nm/T-MI post-route", Diags: []Diagnostic{
		{Rule: "ERC-DANGLE", Severity: Warning, Where: "net n_154", Message: "driven net has no sinks", Hint: "prune it"},
		{Rule: "ERC-LOOP", Severity: Error, Where: "inst u1", Message: "combinational loop"},
		{Rule: "ERC-DANGLE", Severity: Info, Where: "net n_154", Message: "driven net has no sinks", Hint: "prune it"},
	}})
	f.Add(full)
	f.Add(binaryOf(&Report{Subject: "nil diagnostics"}))
	f.Add(binaryOf(&Report{Subject: "empty diagnostics", Diags: []Diagnostic{}}))
	f.Add(binaryOf(&Report{Subject: "<s&>\xff", Diags: []Diagnostic{{Rule: "R\x00", Severity: -7, Where: "\xe2\x80\xa8"}}}))
	for _, cut := range []int{len(full) / 4, len(full) / 2, 3 * len(full) / 4, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(append(bytes.Clone(full), 0))
	f.Add([]byte{})
	damaged := func(build func(w *binwire.Writer)) []byte {
		w := binwire.NewWriter(nil)
		w.String("s")
		build(w)
		return w.Bytes()
	}
	f.Add(damaged(func(w *binwire.Writer) { w.Uvarint(1000) }))               // more diagnostics than bytes
	f.Add(damaged(func(w *binwire.Writer) { w.Len(1, false); w.Uvarint(5) })) // an undefined symbol
	f.Add(damaged(func(w *binwire.Writer) {                                   // a symbol spelled twice
		w.Len(1, false)
		w.Symbol("R")
		w.Int(0)
		w.String("w")
		w.Raw("\x00\x01R")
		w.Symbol("")
	}))
	f.Add(damaged(func(w *binwire.Writer) { w.Raw("\x81\x00") })) // a count spelled long
	f.Fuzz(func(t *testing.T, b []byte) {
		rd := binwire.NewReader(b)
		var r Report
		r.ReadBinary(rd)
		if !rd.Done() {
			return
		}
		if again := binaryOf(&r); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes to %+v, which re-encodes as %q", b, r, again)
		}
	})
}
