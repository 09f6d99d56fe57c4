package online

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

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenReplayHash is the SHA-256 of the Metrics and every List view
// (floats by their bits) of the replays in TestReplayGolden. A change to
// the engine's scheduling or to the price of a step moves it; never
// re-record it to make such a change pass. It was recorded on amd64.
const goldenReplayHash = "ff9e00daaa69fc18c93c338a1e708728fb1f655b770c2111d68d55e90e6e201e"

// futureRoom is futureRoomLocked under the engine lock.
func (e *Engine) futureRoom(window int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.futureRoomLocked(window)
}

// replayRef is Replay written over the engine's public methods, each of
// which takes the engine lock on its own. after, when set, runs after
// every Step with the step's index.
func replayRef(e *Engine, specs []RequestSpec, window int, after func(step int)) Metrics {
	if window <= 0 {
		window = e.cfg.MaxPrefillBatch
	}
	if window > e.cfg.QueueCapacity/2 && e.cfg.QueueCapacity >= 2 {
		window = e.cfg.QueueCapacity / 2
	}
	i := 0
	for step := 0; ; step++ {
		clock := e.Clock()
		for i < len(specs) && specs[i].ArrivalSeconds <= clock {
			e.Submit(specs[i])
			i++
		}
		for i < len(specs) && e.futureRoom(window) {
			e.Submit(specs[i])
			i++
		}
		more := e.Step()
		if after != nil {
			after(step)
		}
		if !more {
			if i >= len(specs) {
				break
			}
			e.Submit(specs[i])
			i++
		}
	}
	return e.Metrics()
}

// hashValue writes v into h: floats by their bits, integers as int64,
// strings with their length, and structs and slices field by field.
func hashValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		binary.Write(h, binary.LittleEndian, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		binary.Write(h, binary.LittleEndian, v.Int())
	case reflect.String:
		binary.Write(h, binary.LittleEndian, int64(v.Len()))
		h.Write([]byte(v.String()))
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

// goldenTrace is a seeded ShareGPT trace with a mix of priorities, and a
// deadline tight enough that some requests expire.
func goldenTrace(maxPos int, seed uint64, rate float64, n int, slo float64) []RequestSpec {
	profile := workload.ShareGPT(stats.NewRNG(seed), 64).Filter(maxPos)
	specs := Arrivals(stats.NewRNG(seed+1), profile, rate, n, slo)
	for i := range specs {
		specs[i].Priority = i % 3
	}
	return specs
}

// TestReplayGolden pins the engine's output bit for bit: colocated and
// disaggregated (transfer and replay-only handoffs) configs replay a
// trace with mixed priorities and expiring deadlines at three
// look-ahead windows, and once more with cancellations mid-run. Each
// Replay must equal replayRef, the same loop over the public methods.
func TestReplayGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	configs := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"colocated", colocatedConfig(t), 3},
		{"colocated-tight", colocatedConfig(t), 6},
		{"disagg-transfer", disaggConfig(t, cluster.Eth800BW), 3},
		{"disagg-replay", disaggConfig(t, 0), 3},
	}
	// A tight queue and batch cap make admission control shed load and
	// the batch cap bind.
	configs[1].cfg.QueueCapacity, configs[1].cfg.MaxBatch = 4, 8
	h := sha256.New()
	for _, c := range configs {
		specs := goldenTrace(c.cfg.Spec.MaxPos, 3, c.rate, 120, 20)
		for _, window := range []int{0, 1, 4} {
			e := mustEngine(t, c.cfg)
			m := e.Replay(specs, window)
			views := e.List()
			ref := mustEngine(t, c.cfg)
			if mr := replayRef(ref, specs, window, nil); !reflect.DeepEqual(m, mr) {
				t.Fatalf("%s window %d: Replay metrics\n%+v\nreference\n%+v", c.name, window, m, mr)
			}
			if vr := ref.List(); !reflect.DeepEqual(views, vr) {
				t.Fatalf("%s window %d: Replay views differ from the reference loop's", c.name, window)
			}
			if m.Expired == 0 || m.Completed == 0 {
				t.Fatalf("%s window %d: %d completed, %d expired: the trace must do both", c.name, window, m.Completed, m.Expired)
			}
			fmt.Fprintf(h, "%s/%d;", c.name, window)
			hashValue(h, reflect.ValueOf(m))
			hashValue(h, reflect.ValueOf(views))
		}

		// Cancel mid-run: at three steps, the first decoding request and
		// the last unfinished one.
		e := mustEngine(t, c.cfg)
		m := replayRef(e, specs, 0, func(step int) {
			if step != 150 && step != 400 && step != 900 {
				return
			}
			var first, last string
			for _, v := range e.List() {
				if v.State == StateDecoding && first == "" {
					first = v.ID
				}
				if !v.State.Terminal() {
					last = v.ID
				}
			}
			for _, id := range []string{first, last} {
				if id == "" {
					continue
				}
				if err := e.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		if m.Canceled < 2 {
			t.Fatalf("%s: %d canceled, want at least 2", c.name, m.Canceled)
		}
		fmt.Fprintf(h, "%s/cancel;", c.name)
		hashValue(h, reflect.ValueOf(m))
		hashValue(h, reflect.ValueOf(e.List()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenReplayHash {
		t.Fatalf("replay hash = %s, want %s", got, goldenReplayHash)
	}
}
