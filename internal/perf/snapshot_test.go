package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// stubbed returns a copy of the named entry of Snapshots whose gated
// parts report fresh instead of running their scenario, and whose
// ungated parts fail the test if run.
func stubbed(t *testing.T, file string, fresh map[string]float64) Snapshot {
	t.Helper()
	for _, s := range Snapshots {
		if s.File != file {
			continue
		}
		s.Parts = append([]Part(nil), s.Parts...)
		for i := range s.Parts {
			if len(s.Parts[i].Gates) > 0 {
				s.Parts[i].Run = func(context.Context) (any, error) { return fresh, nil }
			} else {
				key := s.Parts[i].Key
				s.Parts[i].Run = func(context.Context) (any, error) {
					t.Errorf("ungated part %s ran during a check", key)
					return nil, nil
				}
			}
		}
		return s
	}
	t.Fatalf("no snapshot %s in the table", file)
	return Snapshot{}
}

func TestSnapshotGates(t *testing.T) {
	cases := []struct {
		name      string
		file      string
		committed string // CONFIG stands for the table's fingerprint
		fresh     map[string]float64
		want      []string // one substring per expected failure, in order
	}{
		{
			name:      "stale config",
			file:      "BENCH_online.json",
			committed: `{"config": "0000000000000000", "online_serving": {"goodput_tps": 400, "ttft_p50_seconds": 0.3}}`,
			fresh:     map[string]float64{"goodput_tps": 400, "ttft_p50_seconds": 0.3},
			want:      []string{"is stale"},
		},
		{
			name:      "missing committed value",
			file:      "BENCH_online.json",
			committed: `{"config": CONFIG, "online_serving": {"ttft_p50_seconds": 0.3}}`,
			fresh:     map[string]float64{"goodput_tps": 400, "ttft_p50_seconds": 0.3},
			want:      []string{"no committed online_serving.goodput_tps"},
		},
		{
			name:      "missing committed part",
			file:      "BENCH_maintenance.json",
			committed: `{"config": CONFIG}`,
			fresh:     map[string]float64{"migrated_sessions": 8},
			want:      []string{"no committed rolling_maintenance.migrated_sessions"},
		},
		{
			name:      "relative floor at the bound",
			file:      "BENCH_replan.json",
			committed: `{"config": CONFIG, "replan_latency": {"speedup": 8}}`,
			fresh:     map[string]float64{"speedup": 6},
		},
		{
			name:      "relative floor just inside",
			file:      "BENCH_replan.json",
			committed: `{"config": CONFIG, "replan_latency": {"speedup": 8}}`,
			fresh:     map[string]float64{"speedup": 6.001},
		},
		{
			name:      "relative floor just outside",
			file:      "BENCH_replan.json",
			committed: `{"config": CONFIG, "replan_latency": {"speedup": 8}}`,
			fresh:     map[string]float64{"speedup": 5.999},
			want:      []string{"replan_latency.speedup = 5.999 (committed 8, floor −25% 6): regressed"},
		},
		{
			name:      "relative ceiling just inside",
			file:      "BENCH_capacity.json",
			committed: `{"config": CONFIG, "capacity_planning": {"cost_per_hour": 4, "sim_queue_wait_p95_seconds": 0.2}}`,
			fresh:     map[string]float64{"cost_per_hour": 4.999, "sim_queue_wait_p95_seconds": 0.2},
		},
		{
			name:      "relative ceiling just outside",
			file:      "BENCH_capacity.json",
			committed: `{"config": CONFIG, "capacity_planning": {"cost_per_hour": 4, "sim_queue_wait_p95_seconds": 0.2}}`,
			fresh:     map[string]float64{"cost_per_hour": 5.001, "sim_queue_wait_p95_seconds": 0.2},
			want:      []string{"capacity_planning.cost_per_hour = 5.001 (committed 4, ceiling +25% 5): regressed"},
		},
		{
			name:      "sim wait gate needs only a committed cost",
			file:      "BENCH_capacity.json",
			committed: `{"config": CONFIG, "capacity_planning": {"cost_per_hour": 4, "sim_queue_wait_p95_seconds": 0}}`,
			fresh:     map[string]float64{"cost_per_hour": 4, "sim_queue_wait_p95_seconds": 0.001},
			want:      []string{"capacity_planning.sim_queue_wait_p95_seconds = 0.001 (committed 0, ceiling +25% 0): regressed"},
		},
		{
			name:      "absolute ceiling with negative committed overhead, inside",
			file:      "BENCH_obs.json",
			committed: `{"config": CONFIG, "obs_overhead": {"traced_jobs_per_sec": 876.5, "overhead": -0.026}}`,
			fresh:     map[string]float64{"traced_jobs_per_sec": 800, "overhead": 0.049},
		},
		{
			name:      "absolute ceiling with negative committed overhead, outside",
			file:      "BENCH_obs.json",
			committed: `{"config": CONFIG, "obs_overhead": {"traced_jobs_per_sec": 876.5, "overhead": -0.026}}`,
			fresh:     map[string]float64{"traced_jobs_per_sec": 800, "overhead": 0.051},
			want:      []string{"obs_overhead.overhead = 0.051 (committed -0.026, absolute ceiling 0.05): regressed"},
		},
		{
			name:      "obs gate needs a committed traced throughput",
			file:      "BENCH_obs.json",
			committed: `{"config": CONFIG, "obs_overhead": {"traced_jobs_per_sec": 0, "overhead": -0.026}}`,
			fresh:     map[string]float64{"traced_jobs_per_sec": 800, "overhead": 0},
			want:      []string{"no committed obs_overhead.traced_jobs_per_sec"},
		},
		{
			name:      "two failing gates both reported",
			file:      "BENCH_online.json",
			committed: `{"config": CONFIG, "online_serving": {"goodput_tps": 400, "ttft_p50_seconds": 0.4}}`,
			fresh:     map[string]float64{"goodput_tps": 299, "ttft_p50_seconds": 0.501},
			want: []string{
				"online_serving.goodput_tps = 299 (committed 400, floor −25% 300): regressed",
				"online_serving.ttft_p50_seconds = 0.501 (committed 0.4, ceiling +25% 0.5): regressed",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := stubbed(t, tc.file, tc.fresh)
			dir := t.TempDir()
			doc := strings.Replace(tc.committed, "CONFIG", `"`+s.Config+`"`, 1)
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			errs := s.Check(context.Background(), dir, &out)
			if len(errs) != len(tc.want) {
				t.Fatalf("got %d failures %v, want %d %q (passing lines: %q)", len(errs), errs, len(tc.want), tc.want, out.String())
			}
			for i, err := range errs {
				if !strings.Contains(err.Error(), tc.want[i]) {
					t.Errorf("failure %d = %q, want it to contain %q", i, err, tc.want[i])
				}
			}
		})
	}
}

// TestSnapshotWriteLayout writes a snapshot from stubbed parts and
// checks the file lists config first and then every part in table
// order, and that it passes its own gates.
func TestSnapshotWriteLayout(t *testing.T) {
	s := stubbed(t, "BENCH_replan.json", map[string]float64{"speedup": 6})
	for i := range s.Parts {
		s.Parts[i].Run = func(context.Context) (any, error) { return map[string]float64{"speedup": 6}, nil }
	}
	dir := t.TempDir()
	if err := s.Write(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, s.File))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"config", "replan_latency", "plan_parallel_speedup", "serve_throughput"}
	if got := topKeys(t, raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("written keys %v, want %v", got, want)
	}
	if errs := s.Check(context.Background(), dir, &bytes.Buffer{}); len(errs) != 0 {
		t.Fatalf("a freshly written snapshot fails its own gates: %v", errs)
	}
}

// TestCommittedSnapshots decodes every committed BENCH_*.json file
// through the table: its config must equal the code's fingerprint, its
// keys must follow the table's layout, and every value a gate reads must
// be present.
func TestCommittedSnapshots(t *testing.T) {
	for _, s := range Snapshots {
		t.Run(s.File, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", s.File))
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"config"}
			for _, p := range s.Parts {
				want = append(want, p.Key)
			}
			if got := topKeys(t, raw); !reflect.DeepEqual(got, want) {
				t.Fatalf("committed keys %v, want %v", got, want)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if doc["config"] != s.Config {
				t.Errorf("committed config %v, code fingerprints %s", doc["config"], s.Config)
			}
			for _, p := range s.Parts {
				part, _ := doc[p.Key].(map[string]any)
				for _, g := range p.Gates {
					for _, f := range []string{g.Field, g.Requires} {
						if _, ok := part[f].(float64); f != "" && !ok {
							t.Errorf("%s.%s is missing or not a number", p.Key, f)
						}
					}
				}
			}
		})
	}
}

// topKeys lists a JSON object's top-level keys in document order.
func topKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
