package route

import (
	"tmi3d/internal/binwire"
	"tmi3d/internal/tech"
)

// WriteBinary appends r's binary form (internal/binwire) to w: the stage
// store's route artifact. Every length travels as its bit pattern, and nil
// and empty route lists stay distinct.
func (r *Result) WriteBinary(w *binwire.Writer) {
	w.Len(len(r.Routes), r.Routes == nil)
	for i := range r.Routes {
		nr := &r.Routes[i]
		w.Float(nr.Len)
		writeClasses(w, &nr.LenByClass)
		w.Int(nr.Vias)
		w.Int(int(nr.Class))
	}
	w.Float(r.TotalLen)
	writeClasses(w, &r.LenByClass)
	w.Int(r.Overflow)
	w.Float(r.MaxCongestion)
	w.Int(r.GX)
	w.Int(r.GY)
	w.Float(r.Pitch)
}

func writeClasses(w *binwire.Writer, v *[NumClasses]float64) {
	for _, x := range v {
		w.Float(x)
	}
}

// ReadBinary replaces r with the result WriteBinary wrote, or fails rd.
func (r *Result) ReadBinary(rd *binwire.Reader) {
	*r = Result{}
	// A route is its lengths and at least a byte each for vias and class.
	if n, null := rd.Len(8*(1+NumClasses) + 2); !null && rd.OK() {
		r.Routes = make([]NetRoute, n)
	}
	for i := range r.Routes {
		nr := &r.Routes[i]
		nr.Len = rd.Float()
		readClasses(rd, &nr.LenByClass)
		nr.Vias = rd.Int()
		nr.Class = tech.LayerClass(rd.Int())
	}
	r.TotalLen = rd.Float()
	readClasses(rd, &r.LenByClass)
	r.Overflow = rd.Int()
	r.MaxCongestion = rd.Float()
	r.GX = rd.Int()
	r.GY = rd.Int()
	r.Pitch = rd.Float()
}

func readClasses(rd *binwire.Reader, v *[NumClasses]float64) {
	for i := range v {
		v[i] = rd.Float()
	}
}
