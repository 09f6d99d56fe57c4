// Package scheduler turns the planner into a fleet service: given a set
// of offline serving jobs (model + workload + request volume) and a pool
// of harvested heterogeneous clusters with limited availability (the
// idle capacity of Fig. 1), it plans every feasible (job, cluster)
// pairing with the SplitQuant assigner, estimates batch durations on the
// pipeline simulator, and assigns jobs to clusters with a
// longest-processing-time-first greedy that minimizes makespan.
package scheduler

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Job is one offline serving workload to be completed.
type Job struct {
	// ID names the job.
	ID string
	// Model is the architecture to serve (see model.Names).
	Model string
	// Batch is the planner batch shape (B concurrent requests).
	Batch workload.Batch
	// Requests is the total number of requests to process; the job runs
	// ⌈Requests/B⌉ sequential batches.
	Requests int
}

// batches returns the number of sequential batches the job needs.
func (j *Job) batches() int {
	if j.Batch.Size <= 0 {
		return 0
	}
	return (j.Requests + j.Batch.Size - 1) / j.Batch.Size
}

// Validate checks the job.
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("scheduler: job without id")
	}
	if _, err := model.Lookup(j.Model); err != nil {
		return fmt.Errorf("scheduler: job %s: %w", j.ID, err)
	}
	if err := j.Batch.Validate(); err != nil {
		return fmt.Errorf("scheduler: job %s: %w", j.ID, err)
	}
	if j.Requests <= 0 {
		return fmt.Errorf("scheduler: job %s: %d requests", j.ID, j.Requests)
	}
	return nil
}

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

// Assignment is one job placed on one resource.
type Assignment struct {
	JobID    string
	Resource string
	// Plan is the SplitQuant deployment used on the resource.
	Plan *plan.Plan
	// BatchSeconds is the simulated latency of one batch.
	BatchSeconds float64
	// Duration is the job's total wall-clock on the resource
	// (batches × batch latency / availability).
	Duration float64
	// Throughput is the simulated output-token rate during execution.
	Throughput float64
}

// Schedule is the result of Build.
type Schedule struct {
	Assignments []Assignment
	// Makespan is the completion time of the busiest resource.
	Makespan float64
	// Loads maps resource name to its total assigned duration.
	Loads map[string]float64
	// Unplaceable lists jobs no resource could serve (OOM everywhere).
	Unplaceable []string
}

// Build plans every feasible (job, resource) pairing with the planner
// options and assigns jobs greedily (longest minimum-duration first) to
// minimize makespan. Every pairing of a build goes through one
// core.PlanCache: identical (model, batch, pool) pairings are solved
// once, and when opts.Costs is nil all solves share the cache's
// per-device cost evaluations.
func Build(ctx context.Context, jobs []Job, resources []Resource, opts core.Options) (*Schedule, error) {
	return build(ctx, jobs, resources, opts, nil)
}

// Rebuild is Build warm-started from a previous schedule: each job's
// previous plan (wherever it ran) seeds the search on every candidate
// resource, so re-planning after a fleet change — pools shrunk by
// preemption, or restored afterwards — prunes most of the configuration
// space instead of searching cold. The resulting schedule is identical
// to what Build would produce on the same inputs. A nil prev degrades
// to Build.
func Rebuild(ctx context.Context, jobs []Job, resources []Resource, opts core.Options, prev *Schedule) (*Schedule, error) {
	return build(ctx, jobs, resources, opts, prev)
}

func build(ctx context.Context, jobs []Job, resources []Resource, pOpts core.Options, prev *Schedule) (*Schedule, error) {
	if len(jobs) == 0 || len(resources) == 0 {
		return nil, fmt.Errorf("scheduler: need at least one job and one resource")
	}
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for i := range resources {
		if err := resources[i].Validate(); err != nil {
			return nil, err
		}
		if seen[resources[i].Name] {
			return nil, fmt.Errorf("scheduler: duplicate resource %s", resources[i].Name)
		}
		seen[resources[i].Name] = true
	}
	if pOpts.Method == "" {
		pOpts.Method = core.MethodHeuristic
	}
	if pOpts.Theta == 0 {
		pOpts.Theta = 1
	}
	if !core.ValidMethod(pOpts.Method) {
		return nil, fmt.Errorf("scheduler: %w %q", core.ErrUnknownMethod, pOpts.Method)
	}

	// Previous plans by job ID, for warm-started pairings.
	prevPlan := map[string]*plan.Plan{}
	if prev != nil {
		for _, a := range prev.Assignments {
			prevPlan[a.JobID] = a.Plan
		}
	}

	// Plan all pairings.
	type option struct {
		res      int
		plan     *plan.Plan
		batchSec float64
		tput     float64
		duration float64
	}
	jobOptions := make([][]option, len(jobs))
	plans := core.NewPlanCache(len(jobs) * len(resources))
	for ji := range jobs {
		job := &jobs[ji]
		spec, err := model.Lookup(job.Model)
		if err != nil {
			return nil, err
		}
		for ri := range resources {
			res := &resources[ri]
			p, _, _, err := plans.Plan(ctx, spec, res.Cluster, job.Batch, pOpts, prevPlan[job.ID])
			if err != nil {
				// A canceled context surfaces as a plan error on every
				// pairing; distinguish it from genuine infeasibility so
				// cancellation doesn't masquerade as "nothing fits".
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue // infeasible pairing
			}
			sim, err := pipeline.Simulate(p, spec, res.Cluster, job.Batch)
			if err != nil {
				continue
			}
			dur := float64(job.batches()) * sim.TotalSeconds / res.Availability
			jobOptions[ji] = append(jobOptions[ji], option{
				res: ri, plan: p, batchSec: sim.TotalSeconds, tput: sim.Throughput, duration: dur,
			})
		}
	}

	// Order jobs by their best-case duration, longest first (LPT).
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	best := make([]float64, len(jobs))
	for i := range jobs {
		best[i] = math.Inf(1)
		for _, o := range jobOptions[i] {
			if o.duration < best[i] {
				best[i] = o.duration
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return best[order[a]] > best[order[b]] })

	sched := &Schedule{Loads: map[string]float64{}}
	loads := make([]float64, len(resources))
	for _, ji := range order {
		if len(jobOptions[ji]) == 0 {
			sched.Unplaceable = append(sched.Unplaceable, jobs[ji].ID)
			continue
		}
		// Place where completion time (current load + duration) is least.
		bestOpt := -1
		bestDone := math.Inf(1)
		for oi, o := range jobOptions[ji] {
			done := loads[o.res] + o.duration
			if done < bestDone {
				bestDone = done
				bestOpt = oi
			}
		}
		o := jobOptions[ji][bestOpt]
		loads[o.res] += o.duration
		sched.Assignments = append(sched.Assignments, Assignment{
			JobID:        jobs[ji].ID,
			Resource:     resources[o.res].Name,
			Plan:         o.plan,
			BatchSeconds: o.batchSec,
			Duration:     o.duration,
			Throughput:   o.tput,
		})
	}
	for ri, l := range loads {
		sched.Loads[resources[ri].Name] = l
		if l > sched.Makespan {
			sched.Makespan = l
		}
	}
	return sched, nil
}
