package flow

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

func sampleConfig() Config {
	return Config{
		Circuit:     "AES",
		Scale:       0.5,
		Node:        tech.N7,
		Mode:        tech.ModeTMI,
		ClockPs:     123.25,
		Util:        0.62,
		PinCapScale: 0.85,
		ResistivityScale: map[tech.LayerClass]float64{
			tech.ClassLocal:  1.5,
			tech.ClassGlobal: 0.5,
		},
		Use2DWLM:   true,
		Activities: power.Activities{PrimaryInput: 0.2, SeqOutput: 0.1},
		Seed:       42,
		Lint:       lint.GateWarnOnly,
		Equiv:      lint.GateOff,
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	in := sampleConfig()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("config round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// The key — the identity the serving layer caches under — must survive
	// the trip too.
	if in.Key() != out.Key() {
		t.Fatalf("key changed across round trip: %q vs %q", in.Key(), out.Key())
	}
}

func sampleResult() *Result {
	return &Result{
		Config:       sampleConfig(),
		Footprint:    1234.5,
		DieW:         40.5,
		DieH:         30.5,
		NumCells:     321,
		NumBuffers:   17,
		Util:         0.61,
		CellArea:     1100.25,
		TotalWL:      9876.5,
		WLByClass:    [4]float64{10, 20, 30, 40},
		Overflow:     2,
		AvgFanout:    2.5,
		WNS:          12.5,
		ClockPs:      400,
		ClockWL:      55.5,
		ClockBuffers: 3,
		Power: &power.Report{
			Total: 1.5, Cell: 0.7, Net: 0.6, Wire: 0.4, Pin: 0.2,
			Leakage: 0.2, WireCap: 1.25, PinCap: 0.5, NetActivity: 0.15,
			ByFunction: map[string]float64{"NAND2": 0.2, "DFF": 0.4, "BUF": 0.1},
		},
		OptStats:   &opt.Stats{Upsized: 4, Downsized: 2, BuffersAdd: 7, FinalWNS: 1.25, Rounds: 3},
		SynthStats: netlist.Stats{NumCells: 300, NumNets: 310, NumBuffers: 10, NumSeq: 32, AverageFanout: 2.4},
		WLSamples:  map[int][]float64{1: {1.5, 2.5}, 2: {3.5}, 10: {4.5}},
		// In-memory-only fields: must never reach the wire.
		Implementation: func() (*netlist.Design, *place.Placement, error) {
			return &netlist.Design{Name: "not-serialized"}, &place.Placement{}, nil
		},
		StageTimes: []StageTime{{Stage: "synth", D: 1}},
		LintReports: []*lint.Report{
			{Subject: "AES/7nm/T-MI post-synth"},
		},
	}
}

// TestResultJSONRoundTrip asserts the serving-layer contract: encoding is
// deterministic, a decoded result re-encodes to identical bytes, and the
// in-memory-only fields stay off the wire.
func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"not-serialized", "StageTimes", "stage_times"} {
		if strings.Contains(string(data), banned) {
			t.Fatalf("encoded result leaks excluded field %q:\n%s", banned, data)
		}
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Implementation != nil || back.StageTimes != nil {
		t.Fatal("decoded result grew in-memory-only fields")
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", data, data2)
	}
	// Determinism across repeated encodes (map ordering).
	for i := 0; i < 20; i++ {
		d, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, d) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}
