package scheduler

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

func fixedBatch(B int) workload.Batch {
	return workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
}

func fastPlanner() core.Options {
	return core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4}
}

// TestValidation: a resource needs a name and a valid cluster.
func TestValidation(t *testing.T) {
	good := Resource{Name: "x", Cluster: cluster.MustPreset(1), Availability: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noName := good
	noName.Name = ""
	noCluster := good
	noCluster.Cluster = nil
	badCluster := good
	badCluster.Cluster = &cluster.Cluster{}
	for _, r := range []Resource{noName, noCluster, badCluster} {
		if err := r.Validate(); err == nil {
			t.Errorf("%+v accepted", r)
		}
	}
}

// TestZeroAvailabilityRejected: availability must be in (0, 1]; zero,
// negative, > 1 and NaN fail validation.
func TestZeroAvailabilityRejected(t *testing.T) {
	for _, avail := range []float64{0, -0.5, 1.5, math.NaN()} {
		r := Resource{Name: "idle", Cluster: cluster.MustPreset(5), Availability: avail}
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "availability") {
			t.Errorf("availability %v: Validate err = %v", avail, err)
		}
	}
}
