package perf

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/gpu"
)

// Rule is how a Gate compares a fresh measurement with the committed
// one.
type Rule int

const (
	// HigherBetter fails when the fresh value falls more than Bound (a
	// fraction) below the committed value.
	HigherBetter Rule = iota
	// LowerBetter fails when the fresh value rises more than Bound (a
	// fraction) above the committed value.
	LowerBetter
	// Ceiling fails when the fresh value exceeds Bound itself, whatever
	// was committed.
	Ceiling
)

// regressionTolerance is how far a relatively gated quantity may
// degrade against the committed snapshot before a check fails.
const regressionTolerance = 0.25

// Gate is one regression check on a numeric field of a snapshot part.
type Gate struct {
	// Field is the JSON key of the gated value within its part.
	Field string
	Rule  Rule
	Bound float64
	// Requires names the committed field that must be positive for the
	// gate to have anything to compare against; empty means Field. The
	// obs gate needs it: its committed overhead may be negative.
	Requires string
}

// Part is one measured object of a snapshot file: Run produces it and
// Gates check it. A part without gates is written by -out and never
// re-run by -check.
type Part struct {
	Key   string
	Run   func(context.Context) (any, error)
	Gates []Gate
}

// Snapshot is one committed BENCH_*.json file. Config fingerprints the
// scenario parameters its parts measure; a committed file whose config
// differs from the code's is stale and gates nothing.
type Snapshot struct {
	File   string
	Config string
	Parts  []Part
}

// Snapshots is every committed snapshot file, in the order cmd/benchjson
// writes and checks them. Replan and obs compare only ratios and the
// online, capacity and maintenance gates only deterministic counts or
// virtual-clock results, so snapshots and checks may run on different
// machines.
var Snapshots = []Snapshot{
	{
		File: "BENCH_replan.json",
		Config: fingerprint("replan:%s|preset%d|B%d|s%d|o%d|rounds%d;parallel:opt-30b|preset5|B32|theta1;serve:opt-1.3b|pool9|B8|r8",
			replanModel, replanPreset, replanBatch, replanPrompt, replanOut, MaxChurnRound),
		Parts: []Part{
			{Key: "replan_latency", Run: func(ctx context.Context) (any, error) { return ReplanLatency(ctx, 0) },
				Gates: []Gate{{Field: "speedup", Rule: HigherBetter, Bound: regressionTolerance}}},
			{Key: "plan_parallel_speedup", Run: func(ctx context.Context) (any, error) { return PlanParallelSpeedup(ctx) }},
			{Key: "serve_throughput", Run: func(ctx context.Context) (any, error) { return ServeThroughput(ctx, 0) }},
		},
	},
	{
		File: "BENCH_online.json",
		Config: fingerprint("online:%s|preset%d|sharegpt%d:%d|arrivals%d@%.1f|n%d|slo%.0f",
			onlineModel, onlinePreset, onlineProfileSeed, onlineProfileN,
			onlineArrivalSeed, onlineRate, onlineRequests, onlineSLO),
		Parts: []Part{
			{Key: "online_serving", Run: func(ctx context.Context) (any, error) { return OnlineServing(ctx) },
				Gates: []Gate{
					{Field: "goodput_tps", Rule: HigherBetter, Bound: regressionTolerance},
					{Field: "ttft_p50_seconds", Rule: LowerBetter, Bound: regressionTolerance},
				}},
		},
	},
	{
		File: "BENCH_capacity.json",
		Config: fingerprint("capacity:%s|sharegpt%d:%d|arrivals%d@%.1f|n%d|slo%.2f/%.2f/%.3f|classes:V100+A100|max%d",
			capModel, capProfileSeed, capProfileN,
			capArrivalSeed, capRate, capRequests,
			capWaitSLO, capTTFTSLO, capTBTSLO, capMaxPerClass),
		Parts: []Part{
			{Key: "capacity_planning", Run: func(ctx context.Context) (any, error) { return CapacityPlanning(ctx) },
				Gates: []Gate{
					{Field: "cost_per_hour", Rule: LowerBetter, Bound: regressionTolerance},
					{Field: "sim_queue_wait_p95_seconds", Rule: LowerBetter, Bound: regressionTolerance, Requires: "cost_per_hour"},
				}},
		},
	},
	{
		File: "BENCH_obs.json",
		Config: fingerprint("obs:opt-1.3b|pool9|B8|r8|warm|jobs%d|rounds%d|ceiling%.2f",
			obsJobs, obsRounds, ObsOverheadCeiling),
		Parts: []Part{
			{Key: "obs_overhead", Run: func(ctx context.Context) (any, error) { return ObsOverhead(ctx, 0) },
				Gates: []Gate{{Field: "overhead", Rule: Ceiling, Bound: ObsOverheadCeiling, Requires: "traced_jobs_per_sec"}}},
		},
	},
	{
		File: "BENCH_maintenance.json",
		Config: fingerprint("maintenance:%s-l%d-h%d|seed%d|sessions%d@%d+%d|fleet%dx%s/%d|chaos%.2f/%.2f",
			maintCfg.Name, maintCfg.Layers, maintCfg.Hidden,
			maintSeed, maintSessions, maintBefore, maintAfter,
			maintDevices, gpu.V100, maintDomainSize, maintCutProb, maintStallProb),
		Parts: []Part{
			{Key: "rolling_maintenance", Run: func(ctx context.Context) (any, error) { return RollingMaintenance(ctx) },
				Gates: []Gate{{Field: "migrated_sessions", Rule: HigherBetter, Bound: regressionTolerance}}},
		},
	},
}

// fingerprint hashes a scenario description into a snapshot config.
func fingerprint(format string, args ...any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Write runs every part and writes the snapshot into dir: config first,
// then the parts in table order.
func (s Snapshot) Write(ctx context.Context, dir string) error {
	var buf bytes.Buffer
	add := func(key string, v any) error {
		raw, err := json.MarshalIndent(v, "  ", "  ")
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		sep := ",\n  "
		if buf.Len() == 0 {
			sep = "{\n  "
		}
		fmt.Fprintf(&buf, "%s%q: %s", sep, key, raw)
		return nil
	}
	if err := add("config", s.Config); err != nil {
		return err
	}
	for _, p := range s.Parts {
		res, err := p.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Key, err)
		}
		if err := add(p.Key, res); err != nil {
			return err
		}
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(filepath.Join(dir, s.File), buf.Bytes(), 0o644)
}

// Check gates the committed snapshot in dir: it re-runs every gated
// part, evaluates every gate, writes one line per passing gate to w and
// returns every failure rather than stopping at the first.
func (s Snapshot) Check(ctx context.Context, dir string, w io.Writer) []error {
	path := filepath.Join(dir, s.File)
	var doc map[string]any
	if raw, err := os.ReadFile(path); err != nil {
		return []error{err}
	} else if err := json.Unmarshal(raw, &doc); err != nil {
		return []error{fmt.Errorf("%s: %w", path, err)}
	}
	if config, _ := doc["config"].(string); config != s.Config {
		return []error{fmt.Errorf("%s is stale: snapshot config %s, code measures %s — regenerate with `make bench-json-out`",
			path, config, s.Config)}
	}
	var errs []error
	for _, p := range s.Parts {
		committed, _ := doc[p.Key].(map[string]any)
		var gates []Gate
		for _, g := range p.Gates {
			req := cmp.Or(g.Requires, g.Field)
			if v, _ := committed[req].(float64); v <= 0 {
				errs = append(errs, fmt.Errorf("%s: no committed %s.%s to gate against", path, p.Key, req))
				continue
			}
			gates = append(gates, g)
		}
		if len(gates) == 0 {
			continue
		}
		current, err := p.measure(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.Key, err))
			continue
		}
		for _, g := range gates {
			line, err := g.eval(p.Key, committed, current)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			fmt.Fprintln(w, line)
		}
	}
	return errs
}

// measure runs the part and returns its fields as they would be written.
func (p Part) measure(ctx context.Context) (map[string]any, error) {
	res, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var fields map[string]any
	return fields, json.Unmarshal(raw, &fields)
}

// eval compares one fresh value against its committed counterpart and
// returns the passing report line or the failure.
func (g Gate) eval(key string, committed, current map[string]any) (string, error) {
	name := key + "." + g.Field
	cur, ok := current[g.Field].(float64)
	if !ok {
		return "", fmt.Errorf("%s: the fresh measurement has no such number", name)
	}
	was, _ := committed[g.Field].(float64)
	var limit float64
	var fail bool
	var rule string
	switch g.Rule {
	case HigherBetter:
		limit = was * (1 - g.Bound)
		fail, rule = cur < limit, fmt.Sprintf("floor −%.0f%%", g.Bound*100)
	case LowerBetter:
		limit = was * (1 + g.Bound)
		fail, rule = cur > limit, fmt.Sprintf("ceiling +%.0f%%", g.Bound*100)
	case Ceiling:
		limit = g.Bound
		fail, rule = cur > limit, "absolute ceiling"
	default:
		return "", fmt.Errorf("%s: unknown gate rule %d", name, g.Rule)
	}
	line := fmt.Sprintf("%s = %.6g (committed %.6g, %s %.6g)", name, cur, was, rule, limit)
	if fail {
		return "", fmt.Errorf("%s: regressed", line)
	}
	return line + ": ok", nil
}
