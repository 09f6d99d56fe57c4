package capacity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenAnalyzeHash is the SHA-256 of every Analysis, PrefillStation
// and DriftReport (floats by their bits, unexported distributions
// included) that TestAnalyzeGolden produces. A change to a price the
// analytic model reads, or to the model itself, moves it; never
// re-record it to make such a change pass. It was recorded on amd64.
const goldenAnalyzeHash = "95b63dec55bced336d4b07fb4725a9ca49b905f423b29b97d98ec3d3cf477f3f"

// hashValue writes v into h: floats by their bits, integers as int64,
// booleans as one byte, strings with their length, pointers by what
// they point at (nil as a marker), and structs and slices field by
// field, unexported fields included.
func hashValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		binary.Write(h, binary.LittleEndian, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		binary.Write(h, binary.LittleEndian, v.Int())
	case reflect.Bool:
		binary.Write(h, binary.LittleEndian, v.Bool())
	case reflect.String:
		binary.Write(h, binary.LittleEndian, int64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer:
		binary.Write(h, binary.LittleEndian, v.IsNil())
		if !v.IsNil() {
			hashValue(h, v.Elem())
		}
	case reflect.Slice:
		binary.Write(h, binary.LittleEndian, int64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("hashValue: unhandled kind %s", v.Kind()))
	}
}

// TestAnalyzeGolden pins the analytic model's output bit for bit:
// Analyze on a colocated, a disaggregated and a replay-only
// disaggregated config at an idle, a design and a saturated rate;
// SolvePrefill stations at further rates on the same workload; and the
// drift detector's reports on a replayed engine, observed twice so the
// second report re-solves at a new rate.
func TestAnalyzeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	disagg := engineConfig(t, model.OPT13B, 2)
	colocated := disagg
	colocated.DecodePlan, colocated.DecodeCluster = nil, nil
	replayOnly := disagg
	replayOnly.HandoffBW = 0
	configs := []struct {
		name string
		cfg  online.Config
	}{
		{"colocated", colocated},
		{"disagg", disagg},
		{"disagg-replay", replayOnly},
	}
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(model.OPT13B.MaxPos)
	h := sha256.New()
	for _, c := range configs {
		for _, rate := range []float64{0, 2, 8} {
			a, err := Analyze(c.cfg, profile, rate, SLO{QueueWaitP95: 0.5, TTFTP95: 1, TBTMean: 0.05})
			if err != nil {
				t.Fatalf("%s rate %v: Analyze: %v", c.name, rate, err)
			}
			if rate == 8 && !a.Prefill.Saturated {
				t.Fatalf("%s rate 8: prefill rho %.2f not saturated", c.name, a.Prefill.Rho)
			}
			fmt.Fprintf(h, "%s/analyze/%v;", c.name, rate)
			hashValue(h, reflect.ValueOf(a))
		}
		ws, err := AnalyzeWorkload(profile, 256)
		if err != nil {
			t.Fatal(err)
		}
		prices, err := online.NewPrices(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0.5, 1, 3} {
			st, err := SolvePrefill(prices, ws, rate)
			if err != nil {
				t.Fatalf("%s rate %v: SolvePrefill: %v", c.name, rate, err)
			}
			fmt.Fprintf(h, "%s/station/%v;", c.name, rate)
			hashValue(h, reflect.ValueOf(st))
		}

		det := NewDriftDetector(c.cfg, "online-prefill", 0, 0)
		for _, rate := range []float64{1.5, 3} {
			eng, err := online.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := eng.Replay(online.Arrivals(stats.NewRNG(2024), profile, rate, 200, 0), 0)
			rep := det.Observe(eng.List(), m)
			if rep.Verdict == "insufficient-data" {
				t.Fatalf("%s rate %v: drift report %+v", c.name, rate, rep)
			}
			fmt.Fprintf(h, "%s/drift/%v;", c.name, rate)
			hashValue(h, reflect.ValueOf(rep))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenAnalyzeHash {
		t.Fatalf("analyze hash = %s, want %s", got, goldenAnalyzeHash)
	}
}
