package flow

import (
	"testing"

	"tmi3d/internal/opt"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
)

// converge runs another sign-off pass after an ECO round only when the round
// changed a cell: a round that upsized nothing and added no buffer leaves
// the design as the last pass timed it, and that pass is the result.
func TestConvergeStopsAfterNoOpECO(t *testing.T) {
	for _, c := range []struct {
		name       string
		eco        []opt.Stats // what each ECO round does
		passes     int         // sign-off passes converge runs
		upsized    int         // ECO upsizes added to the stats
		buffersAdd int
	}{
		{"no-op first round", []opt.Stats{{}}, 1, 0, 0},
		{"no-op second round", []opt.Stats{{Upsized: 3}, {}}, 2, 3, 0},
		{"every round changes cells", []opt.Stats{{Upsized: 2}, {BuffersAdd: 1}}, 3, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var passes, ecos int
			var routes []*route.Result
			pass := func() (*route.Result, func(int) sta.WireRC, *sta.Result, error) {
				passes++
				rt := &route.Result{TotalLen: float64(passes)}
				routes = append(routes, rt)
				return rt, nil, &sta.Result{WNS: -1}, nil
			}
			eco := func(func(int) sta.WireRC) (*opt.Stats, error) {
				if ecos >= len(c.eco) {
					t.Fatalf("ECO round %d after the last planned one", ecos+1)
				}
				st := c.eco[ecos]
				ecos++
				return &st, nil
			}
			stats := &opt.Stats{Upsized: 10, BuffersAdd: 20}
			rt, _, err := converge(pass, eco, stats)
			if err != nil {
				t.Fatal(err)
			}
			if passes != c.passes {
				t.Fatalf("%d sign-off passes, want %d", passes, c.passes)
			}
			if rt != routes[len(routes)-1] {
				t.Fatal("converge returned a route other than its last pass's")
			}
			if stats.Upsized != 10+c.upsized || stats.BuffersAdd != 20+c.buffersAdd {
				t.Fatalf("stats %+v, want %d upsized and %d buffers", stats, 10+c.upsized, 20+c.buffersAdd)
			}
		})
	}
}
