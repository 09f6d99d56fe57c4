package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scheduler"
)

// TestFleetsimGolden pins the default and -faults reports byte for byte
// (pools, per-job pool, throughput, duration and plan, makespans).
func TestFleetsimGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"faults.golden", []string{"-faults"}},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v output differs from testdata/%s:\n%s", tc.args, tc.golden, out.Bytes())
		}
	}
}

// TestPlacementOrderSensitivity pins how much serve's online placement
// depends on arrival order: at availability 1 the job set in its old
// list order finishes in 1050.5 s, longest first in 706.4 s.
func TestPlacementOrderSensitivity(t *testing.T) {
	var resources []scheduler.Resource
	for _, preset := range []int{5, 6, 8, 9} {
		resources = append(resources, scheduler.Resource{
			Name: fmt.Sprintf("preset-%d", preset), Cluster: cluster.MustPreset(preset), Availability: 1,
		})
	}
	byID := map[string]offlineJob{}
	for _, j := range offlineJobs {
		byID[j.id] = j
	}
	for _, tc := range []struct {
		order []string
		want  string
	}{
		{[]string{"nightly-summaries", "eval-checkpoints", "synthetic-data", "doc-classify"}, "1050.5"},
		{[]string{"synthetic-data", "nightly-summaries", "eval-checkpoints", "doc-classify"}, "706.4"},
	} {
		var jobs []offlineJob
		for _, id := range tc.order {
			jobs = append(jobs, byID[id])
		}
		makespan, err := schedule(context.Background(), io.Discard, jobs, resources, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.1f", makespan); got != tc.want {
			t.Errorf("order %v: makespan %s s, want %s s", tc.order, got, tc.want)
		}
	}
}
