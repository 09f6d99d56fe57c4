package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
)

// ConfigStat records the solver work spent on one explored
// (mesh, ordering, η, ξ) configuration.
type ConfigStat struct {
	// Key is the canonical configuration key: the ordered device IDs
	// joined by ">" plus the micro-batch pair, e.g.
	// "a/tp1-0>b/tp1-0|eta=4|xi=8". Keys are unique within one search
	// phase and stable across runs.
	Key string
	// Feasible reports whether the configuration admitted any assignment
	// (within the quality cap, when one is set).
	Feasible bool
	// Objective is the best Eq. 4 objective found for the configuration;
	// +Inf when infeasible. Baselines report their latency here.
	Objective float64
	// ILPSolves and Nodes count branch-and-bound work spent on the
	// configuration (zero during the heuristic sweep).
	ILPSolves int
	Nodes     int
	// Seconds is the wall-clock time spent on the configuration.
	Seconds float64
	// Pruned reports that a bound proved the configuration cannot win.
	// In the sweep, its bound proved it could not enter the shortlist,
	// so it was skipped (see Assigner.search). In the polish, the ILP
	// solve ended ilp.CutOff: no integer point at this grouping beats
	// the heuristic's best objective. Pruned entries report
	// Feasible=false and an infinite Objective without implying the
	// configuration is actually infeasible.
	Pruned bool
}

// Progress phases.
const (
	// PhaseSearch is the heuristic sweep over candidate configurations.
	PhaseSearch = "search"
	// PhasePolish is the ILP refinement of the shortlisted candidates.
	PhasePolish = "polish"
)

// Progress is one live planning progress event, delivered to
// Options.Progress after each configuration (or polish solve) finishes.
// Events are serialized: the hook is never called concurrently.
type Progress struct {
	// Phase is PhaseSearch or PhasePolish.
	Phase string
	// Done and Total count configurations within the phase. Completion
	// order is nondeterministic under parallel planning; Done only ever
	// increases.
	Done, Total int
	// BestObjective is the best feasible objective seen so far across
	// the whole plan (+Inf until the first feasible configuration).
	BestObjective float64
	// Config describes the configuration that just finished.
	Config ConfigStat
}

// configKey renders the canonical key of one configuration.
func configKey(devs []cluster.Device, eta, xi int) string {
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	return fmt.Sprintf("%s|eta=%d|xi=%d", strings.Join(ids, ">"), eta, xi)
}

// progressSink serializes progress accounting and hook invocation across
// the worker pool.
type progressSink struct {
	mu      sync.Mutex
	hook    func(Progress)
	done    int
	total   int
	phase   string
	bestObj float64
}

func newProgressSink(hook func(Progress), bestObj float64) *progressSink {
	return &progressSink{hook: hook, bestObj: bestObj}
}

// startPhase resets the per-phase counters.
func (s *progressSink) startPhase(phase string, total int) {
	s.mu.Lock()
	s.phase, s.done, s.total = phase, 0, total
	s.mu.Unlock()
}

// finished records one completed configuration and fires the hook. The
// hook runs under the sink lock (hence strictly serialized); it must not
// call back into the planner or block.
func (s *progressSink) finished(stat ConfigStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if stat.Feasible && stat.Objective < s.bestObj {
		s.bestObj = stat.Objective
	}
	if s.hook != nil {
		s.hook(Progress{Phase: s.phase, Done: s.done, Total: s.total, BestObjective: s.bestObj, Config: stat})
	}
}
