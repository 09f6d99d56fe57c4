package perf

import (
	"context"
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/maintenance"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/tinyllm"
	"repro/internal/transport"
)

// The rolling-maintenance scenario is fully fixed: the tiny model, the
// stage splits of the source and destination pipelines, the chaos
// seeds, and the in-flight sessions are all deterministic, so the
// migrated-session count is a property of the orchestrator while the
// makespan is the one machine-dependent number. The measurement fails
// internally unless the roll finishes with zero rollbacks, the fleet is
// fully re-admitted, and every migrated session is bit-identical to an
// uninterrupted reference run — a committed snapshot doubles as proof
// the zero-downtime path works.
const (
	maintSeed       = 2024
	maintSessions   = 8
	maintPromptLen  = 10
	maintBefore     = 6  // tokens produced on the source before the drain
	maintAfter      = 10 // tokens each session still owes
	maintDevices    = 4
	maintDomainSize = 2
	maintCutProb    = 0.01
	maintStallProb  = 0.01
)

var maintCfg = tinyllm.Config{Name: "maint-bench", Layers: 6, Hidden: 32, Heads: 4, FFN: 96, Vocab: 96, MaxPos: 64}

var maintRetry = transport.RetryPolicy{MaxAttempts: 25, BaseDelay: time.Millisecond,
	MaxDelay: 10 * time.Millisecond, Jitter: 0.2, Seed: 9}

// MaintenanceResult is one rolling-maintenance measurement: the shape
// of the roll, the migrated-session count, the destination driver's
// recovery counters under the chaos proxy, and the makespan.
type MaintenanceResult struct {
	Domains          int `json:"domains"`
	DrainedDevices   int `json:"drained_devices"`
	MigratedSessions int `json:"migrated_sessions"`
	Rollbacks        int `json:"rollbacks"`
	// Steps is the total step count across domains (gate, drain,
	// migrate, restart, health-check, readmit per domain).
	Steps int `json:"steps"`
	// Recoveries/ReplayedTokens count the destination driver's
	// chaos-induced session replays during the migrations. Timing
	// dependent, reported for context, never gated.
	Recoveries     uint64 `json:"recoveries"`
	ReplayedTokens uint64 `json:"replayed_tokens"`
	// MakespanSeconds is the wall time of the whole roll — the headline
	// "how long was the fleet in maintenance" number. Machine-dependent,
	// reported for context, never gated.
	MakespanSeconds float64 `json:"makespan_seconds"`
}

// maintPipeline starts stage servers over the given layer cuts,
// optionally putting stage 0 behind a chaos proxy, and returns the
// servers, the driver, and a cleanup func.
func maintPipeline(cuts [][2]int, chaos func(p *transport.ChaosProxy)) ([]*transport.StageServer, *transport.Driver, func(), error) {
	var servers []*transport.StageServer
	var proxy *transport.ChaosProxy
	cleanup := func() {
		if proxy != nil {
			proxy.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	var addrs []string
	for _, c := range cuts {
		s, err := transport.NewStageServer(maintCfg, maintSeed, nil, c[0], c[1])
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			s.Close()
			cleanup()
			return nil, nil, nil, err
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
	}
	if chaos != nil {
		proxy = transport.NewChaosProxy(addrs[0])
		chaos(proxy)
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		addrs[0] = paddr
	}
	d, err := transport.NewDriver(maintCfg, maintSeed, addrs)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	d.SetRetryPolicy(maintRetry)
	all := func() {
		d.Close()
		cleanup()
	}
	return servers, d, all, nil
}

// RollingMaintenance runs the fixed scenario: seed in-flight sessions
// on a two-stage source pipeline, roll its 4-device pool in two
// failure domains — draining, migrating every session to a
// three-stage destination pipeline whose first stage sits behind a
// chaos proxy, restarting the source's first stage in place, and
// health-checking with a live generation — then verify the roll ended
// clean, the fleet is whole, and every migrated session matches the
// uninterrupted reference bit for bit.
func RollingMaintenance(ctx context.Context) (*MaintenanceResult, error) {
	srcServers, src, srcClose, err := maintPipeline([][2]int{{0, 3}, {3, 6}}, nil)
	if err != nil {
		return nil, err
	}
	defer srcClose()
	_, dst, dstClose, err := maintPipeline([][2]int{{0, 2}, {2, 4}, {4, 6}}, func(p *transport.ChaosProxy) {
		p.Randomize(maintSeed, maintCutProb, maintStallProb, 20*time.Millisecond)
	})
	if err != nil {
		return nil, err
	}
	defer dstClose()
	dst.SetIOTimeout(80 * time.Millisecond)

	type inflight struct {
		prompt   []int
		produced []int
		log      *transport.TokenLog
	}
	sessions := make([]inflight, maintSessions)
	for i := range sessions {
		prompt := transport.RandomPrompt(stats.NewRNG(uint64(100+i)), maintCfg.Vocab, maintPromptLen)
		produced, log, err := src.GenerateLog(prompt, maintBefore)
		if err != nil {
			return nil, fmt.Errorf("perf: seeding session %d: %w", i, err)
		}
		sessions[i] = inflight{prompt: prompt, produced: produced, log: log}
	}

	fleet := scheduler.NewFleetState([]scheduler.Resource{{
		Name:         "maint-bench",
		Cluster:      capacity.FleetSpec{gpu.V100: maintDevices}.Cluster("maint-bench", 100),
		Availability: 1,
	}})

	migrated := make([][]int, maintSessions)
	mig := &maintenance.Migrator{Dest: dst}
	hooks := maintenance.Hooks{
		Utilization: func(string) float64 { return 0.3 },
		Migrate: func(ctx context.Context, tg maintenance.Target) (int, error) {
			if tg.Domain != "dom-0" {
				return 0, nil // sessions pin to the first domain only
			}
			ss := make([]maintenance.Session, maintSessions)
			for i := range sessions {
				ss[i] = maintenance.Session{ID: fmt.Sprintf("s%d", i), Log: sessions[i].log, Remaining: maintAfter}
			}
			moved, err := mig.Move(ctx, ss)
			for _, m := range moved {
				var idx int
				fmt.Sscanf(m.ID, "s%d", &idx)
				migrated[idx] = m.Tokens
			}
			return len(moved), err
		},
		Restart: func(_ context.Context, tg maintenance.Target) error {
			if tg.Domain != "dom-0" {
				return nil
			}
			return srcServers[0].Restart()
		},
		Health: func(_ context.Context, tg maintenance.Target) error {
			probe := transport.RandomPrompt(stats.NewRNG(7), maintCfg.Vocab, 4)
			_, err := src.Generate(probe, 2)
			return err
		},
	}
	o, err := maintenance.New(maintenance.Request{
		Targets: []maintenance.Target{
			{Pool: "maint-bench", Class: string(gpu.V100), Count: maintDomainSize, Domain: "dom-0"},
			{Pool: "maint-bench", Class: string(gpu.V100), Count: maintDomainSize, Domain: "dom-1"},
		},
		StepTimeoutSeconds: 60,
		RetryBaseSeconds:   0.001,
	}, fleet, hooks)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := o.Run(ctx); err != nil {
		return nil, fmt.Errorf("perf: maintenance roll failed: %w", err)
	}
	makespan := time.Since(t0).Seconds()

	st := o.Status()
	if st.State != maintenance.StateDone || st.Rollback != 0 {
		return nil, fmt.Errorf("perf: roll ended %s with %d rollbacks, want %s/0", st.State, st.Rollback, maintenance.StateDone)
	}
	if st.Migrated != maintSessions {
		return nil, fmt.Errorf("perf: migrated %d sessions, want %d", st.Migrated, maintSessions)
	}
	view, err := fleet.Snapshot("maint-bench")
	if err != nil {
		return nil, err
	}
	if view.Devices != maintDevices || len(view.Preempted) != 0 {
		return nil, fmt.Errorf("perf: fleet not fully re-admitted after the roll: %d/%d devices usable", view.Devices, maintDevices)
	}
	for i, s := range sessions {
		want, err := transport.Reference(maintCfg, maintSeed, nil, s.prompt, maintBefore+maintAfter)
		if err != nil {
			return nil, err
		}
		got := append(append([]int(nil), s.produced...), migrated[i]...)
		if len(got) != len(want) {
			return nil, fmt.Errorf("perf: session %d migrated to %d tokens, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return nil, fmt.Errorf("perf: session %d diverged from the reference at token %d: %d vs %d", i, j, got[j], want[j])
			}
		}
	}

	steps := 0
	for _, d := range st.Domains {
		steps += len(d.Steps)
	}
	rs := dst.RecoveryStats()
	return &MaintenanceResult{
		Domains:          len(st.Domains),
		DrainedDevices:   maintDevices,
		MigratedSessions: st.Migrated,
		Rollbacks:        st.Rollback,
		Steps:            steps,
		Recoveries:       rs.Recoveries,
		ReplayedTokens:   rs.ReplayedTokens,
		MakespanSeconds:  makespan,
	}, nil
}
