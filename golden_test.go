package tmi3d_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// TestMatrixGoldenDigests is the result-byte tripwire: the Table-4 matrix
// (five circuits, 2D and T-MI, 45 nm) at scale 0.02, seed 1 and one worker
// must encode to exactly the bytes whose SHA-256 digests the repository
// benchmark commits in bench/golden.json. Any kernel change that moves one
// bit of a flow result fails here, under plain `go test ./...`.
func TestMatrixGoldenDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("ten flows under the race detector are too slow; the digests do not depend on it")
	}
	raw, err := os.ReadFile("bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, circuit := range []string{"FPU", "AES", "LDPC", "DES", "M256"} {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			cfg := flow.Config{Circuit: circuit, Scale: 0.02, Node: tech.N45, Mode: mode, Seed: 1}
			want, ok := golden[cfg.Key()]
			if !ok {
				t.Errorf("bench/golden.json has no digest for %s", cfg.Key())
				continue
			}
			res, err := flow.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Key(), err)
			}
			data, err := flow.EncodeResult(res)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Key(), err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: result digest %s, golden %s", cfg.Key(), got, want)
			}
		}
	}
}
