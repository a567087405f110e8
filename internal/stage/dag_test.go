package stage

import (
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// The artifact IDs of one fixed configuration are pinned: they address every
// existing store, so a change that moves the stage graph, a stage key, or
// the ID derivation without meaning to would silently re-key — and
// cold-start — all of them. An intended change bumps idVersion and these
// goldens together.
func TestArtifactIDsGolden(t *testing.T) {
	cfg := flow.Config{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.ModeTMI, Seed: 1}
	want := map[string]string{
		"setup":    "13342ee98bbd11eadb32d54184c5b78fa229e806ad2b27e6fb9e4b4db9114c12",
		"library":  "2dd724ef028639b5a541549ba5c81fd8995314039a36c9a152d30ad4f48aff88",
		"generate": "d275917ba8471c89c2f3630b93d41bd404cd1520c8d3747505cdb3f93b01a54c",
		"wlm":      "204ff2392620a368e0ee08910afcc9fbed55602038f3af1aa2e81dd72773e9d2",
		"gates":    "5bf43f4e270670f1467663a7013b4e715e415957a91cefb0de09c0f1832db764",
		"synth":    "6b4ef57cf5ee9d353dc05a67e2cba5bd7d1785d113cc72aa27b98095b17632fc",
		"place":    "80b15fe41a8db635e33333360f7470acdd6b07522d776355932b87eb08530e2c",
		"opt":      "ac10e7387a6dda27bf9ce57b0120db25126881552e1100b61de67dfcb5c5883d",
		"route":    "f8ffa87a1f2bee2ae4e1198d24c6b8cfc1abb5838e1d55d9d824630c79bbda3a",
		"signoff":  "b19dcca5352bb2062159367b55247890a346f37670812bb7ccbae089a0f7a1f4",
		"power":    "aacfb1a3dc12e153672ca989a3e9ed22b16666cbb20863e93ea4618437290b06",
		"report":   "60c4bd63247f9e8166c507c962f6fcb23405f59066a093a6027fc9f9e71c6d0f",
	}
	got := ids(cfg.Normalized())
	if len(got) != len(want) {
		t.Errorf("%d artifact IDs, want %d", len(got), len(want))
	}
	for name, id := range want {
		if got[name] != id {
			t.Errorf("%s artifact ID = %s, want %s (bump idVersion and this golden together)", name, got[name], id)
		}
	}
}
