package route

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"tmi3d/internal/tech"
)

// TestRouteDigests is the router's own byte tripwire: each case's Result
// must JSON-encode to exactly the bytes whose SHA-256 is pinned here. The
// digests were generated before the router's inner loops were flattened
// (legs, per-orientation pricing, router-owned scratch), so any rewrite that
// moves one wirelength bit, one overflow count or one rip-up decision fails
// in this package, not only through the flow-level digests.
func TestRouteDigests(t *testing.T) {
	cases := []struct {
		circuit  string
		scale    float64
		mode     tech.Mode
		noDetour bool
		want     string
	}{
		{"AES", 0.08, tech.Mode2D, false, "0b17ab59e8c8cbf9d60e9ca5c6a9992ef5ca0d50d0236cf9f09c44fea28560b9"},
		{"LDPC", 0.1, tech.ModeTMI, false, "d245d220bd5a02a163a276378e0d9893c734e43003292917344bc5342c1c110b"},
		{"M256", 0.05, tech.ModeTMIM, false, "e0bbfe101603cc6dda8030e6dafd18d830c0f16be992143cca5b4f5482132940"},
		{"AES", 0.08, tech.Mode2D, true, "3415f2e445344e079761a90d3f934fd6b82a48b15f16e7944c0eec6d9c99c587"},
	}
	for _, c := range cases {
		p := placed(t, c.circuit, c.scale, c.mode)
		r, err := Run(p, Options{Tech: tech.New(tech.N45, c.mode), NoDetour: c.noDetour})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s %v@%g NoDetour=%v: digest %s, want %s", c.circuit, c.mode, c.scale, c.noDetour, got, c.want)
		}
	}
}
