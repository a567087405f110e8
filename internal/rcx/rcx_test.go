package rcx

import (
	"testing"

	"tmi3d/internal/captable"
	"tmi3d/internal/route"
	"tmi3d/internal/tech"
)

func table(mode tech.Mode) (*captable.Table, *tech.Technology) {
	t := tech.New(tech.N45, mode)
	return captable.Build(t, captable.Options{}), t
}

func fakeRoutes() *route.Result {
	r := &route.Result{Routes: make([]route.NetRoute, 3)}
	r.Routes[0] = route.NetRoute{Len: 10, Vias: 2}
	r.Routes[0].LenByClass[tech.ClassLocal] = 10
	r.Routes[1] = route.NetRoute{Len: 100, Vias: 4}
	r.Routes[1].LenByClass[tech.ClassIntermediate] = 80
	r.Routes[1].LenByClass[tech.ClassGlobal] = 20
	// Net 2 unrouted (no sinks).
	return r
}

func TestExtractScalesWithLength(t *testing.T) {
	tb, tt := table(tech.Mode2D)
	ex := Extract(fakeRoutes(), tb, tt)
	if len(ex.Nets) != 3 {
		t.Fatalf("%d nets", len(ex.Nets))
	}
	if ex.Nets[1].C <= ex.Nets[0].C || ex.Nets[1].R <= ex.Nets[0].R {
		t.Error("longer net must have more parasitics")
	}
	// Local vs intermediate unit R: the 10µm local net is much more
	// resistive per µm than the intermediate net.
	rPerUm0 := (ex.Nets[0].R - 2*tb.ViaR) / 10
	rPerUm1 := (ex.Nets[1].R - 4*tb.ViaR) / 100
	if rPerUm0 <= rPerUm1 {
		t.Errorf("local unit R %v should exceed mixed upper-layer unit R %v", rPerUm0, rPerUm1)
	}
	if ex.TotalWireCap <= 0 {
		t.Error("no total wire cap")
	}
}

func TestUnroutedNetHasViaOnlyR(t *testing.T) {
	tb, tt := table(tech.Mode2D)
	ex := Extract(fakeRoutes(), tb, tt)
	if ex.Nets[2].C != 0 {
		t.Errorf("unrouted net C = %v, want 0", ex.Nets[2].C)
	}
}

func TestTMIIncludesMIV(t *testing.T) {
	tb2, tt2 := table(tech.Mode2D)
	tb3, tt3 := table(tech.ModeTMI)
	e2 := Extract(fakeRoutes(), tb2, tt2)
	e3 := Extract(fakeRoutes(), tb3, tt3)
	// The T-MI extraction adds (negligible) MIV parasitics per net.
	if e3.Nets[0].R <= e2.Nets[0].R-1e-9 {
		t.Error("T-MI net R should include the MIV term")
	}
	extra := e3.Nets[0].R - e2.Nets[0].R
	if extra > 30 {
		t.Errorf("MIV term %v Ω should be tiny ('almost negligible parasitic RC')", extra)
	}
}
