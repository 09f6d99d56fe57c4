// Package scheduler describes the harvested pools offline jobs run on:
// a Resource is one cluster with the share of wall-clock time its GPUs
// are idle (the idle capacity of Fig. 1), and FleetState tracks the
// devices the online tier reclaims from each pool at runtime. Which
// pool runs a job is serve's placement rule (see DESIGN.md).
package scheduler

import (
	"fmt"

	"repro/internal/cluster"
)

// Resource is one harvestable cluster.
type Resource struct {
	// Name identifies the resource.
	Name string
	// Cluster is the topology.
	Cluster *cluster.Cluster
	// Availability in (0, 1] is the share of wall-clock time the
	// harvested GPUs are actually free (from the fleet trace); effective
	// duration = compute time / availability.
	Availability float64
}

// Validate checks the resource.
func (r *Resource) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("scheduler: resource without name")
	}
	if r.Cluster == nil {
		return fmt.Errorf("scheduler: resource %s without cluster", r.Name)
	}
	if err := r.Cluster.Validate(); err != nil {
		return fmt.Errorf("scheduler: resource %s: %w", r.Name, err)
	}
	if !(r.Availability > 0 && r.Availability <= 1) { // NaN fails too
		return fmt.Errorf("scheduler: resource %s availability %v outside (0, 1]", r.Name, r.Availability)
	}
	return nil
}
