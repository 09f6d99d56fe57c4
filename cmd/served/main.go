// Command served runs the offline batch-serving control plane: a daemon
// that accepts SplitQuant jobs over HTTP, admits only jobs that can fit
// some pool, plans them (reusing a persistent plan cache), and executes
// batches on the simulated fleet.
//
//	served -listen 127.0.0.1:8080 -state /var/lib/splitquant \
//	       -pools "t4v100:5:0.6,v100x4:9:0.9"
//
// Pools are name:preset:availability triples over the paper's Table III
// cluster presets. With -online the daemon also serves a streaming
// request tier on /v1/requests: continuous iteration-level batching on a
// dedicated cluster preset, planned as disaggregated prefill/decode
// pools when the preset splits feasibly (colocated stop-and-go
// otherwise). With -faults the daemon replays a seeded preemption
// schedule against its own fleet — the online tier reclaiming and
// returning devices — and running jobs re-plan onto the degraded pools
// at their next batch boundary. SIGINT/SIGTERM drains gracefully:
// in-flight batches finish, queued jobs are canceled, and the plan cache
// is persisted so a restarted daemon serves repeat jobs warm. Submit
// work with servectl or plain curl:
//
//	curl -s -X POST localhost:8080/v1/jobs -d \
//	  '{"model":"opt-13b","batch":32,"requests":640}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		state   = flag.String("state", "", "state directory for the persisted plan cache (empty = in-memory only)")
		pools   = flag.String("pools", "pool5:5:1", "resource pools: name:preset:availability,... (preset 1-10 of Table III)")
		method  = flag.String("method", "heuristic", "default planner: ilp | heuristic | adabits | uniform | het")
		theta   = flag.Float64("theta", 1, "default quality scalar θ")
		cacheN  = flag.Int("cache", 256, "plan cache capacity (plans)")
		drainTO = flag.Duration("drain-timeout", 0, "max graceful-drain wait on shutdown; past it in-flight jobs are checkpointed and requeued (0 = wait forever)")

		faults       = flag.Bool("faults", false, "inject seeded preemption faults (online tier reclaiming devices)")
		faultSeed    = flag.Uint64("fault-seed", 1, "preemption schedule seed")
		faultHorizon = flag.Duration("fault-horizon", 2*time.Minute, "preemption schedule window (repeats until shutdown)")

		onlineMode  = flag.Bool("online", false, "enable the streaming request tier (continuous batching over /v1/requests)")
		onlineModel = flag.String("online-model", "opt-13b", "model served by the online tier")
		onlinePre   = flag.Int("online-preset", 2, "cluster preset (Table III) the online tier plans on")

		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) on shutdown")
		eventsPath = flag.String("events", "", "stream trace events to an NDJSON file as they happen")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof/ handlers and export Go runtime metrics")
	)
	flag.Parse()

	resources, err := parsePools(*pools)
	if err != nil {
		fatal(err)
	}
	// Without -trace or -events nothing reads the spans, so the daemon
	// runs untraced and builds none.
	var tracer *obs.Tracer
	if *tracePath != "" || *eventsPath != "" {
		tracer = obs.NewTracer()
	}
	var eventsFile *os.File
	if *eventsPath != "" {
		if eventsFile, err = os.Create(*eventsPath); err != nil {
			fatal(err)
		}
		defer eventsFile.Close()
		tracer.SetSink(eventsFile)
	}
	var eng *online.Engine
	var ocfg online.Config
	var drift *capacity.DriftDetector
	if *onlineMode {
		if eng, ocfg, err = buildOnline(*onlineModel, *onlinePre, tracer); err != nil {
			fatal(err)
		}
		drift = capacity.NewDriftDetector(ocfg, "online-prefill", 0, 0)
	}
	srv, err := serve.New(serve.Config{
		Resources:     resources,
		StateDir:      *state,
		CacheCapacity: *cacheN,
		Planner:       core.Options{Method: core.Method(*method), Theta: *theta},
		DrainTimeout:  *drainTO,
		Online:        eng,
		Tracer:        tracer,
		Drift:         drift,
		Pprof:         *pprofOn,
	})
	if err != nil {
		fatal(err)
	}
	addr, err := srv.Start(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("served: listening on %s (%d pools, cache %d", addr, len(resources), *cacheN)
	if *state != "" {
		fmt.Printf(", state %s", *state)
	}
	fmt.Println(")")
	for _, r := range resources {
		fmt.Printf("  pool %-12s %-26s availability %.0f%%\n", r.Name, r.Cluster, r.Availability*100)
	}

	runCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if eng != nil {
		mode := "colocated"
		if eng.Disaggregated() {
			mode = "disaggregated prefill/decode"
		}
		fmt.Printf("served: online tier on — %s on preset %d (%s, batch %d)\n",
			*onlineModel, *onlinePre, mode, ocfg.MaxBatch)
		go eng.Loop(runCtx)
	}
	if *faults {
		fmt.Printf("served: fault injection on (seed %d, window %s)\n", *faultSeed, *faultHorizon)
		go runFaults(runCtx, srv, *faultSeed, *faultHorizon)
	}

	// SIGINT/SIGTERM drains: finish in-flight batches, persist the cache.
	<-runCtx.Done()
	stop()
	fmt.Println("served: draining (in-flight batches finish, cache persists)")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	m := srv.Metrics()
	fmt.Printf("served: stopped — %d completed, %d failed, %d canceled, cache %d entries (%d hits / %d misses)\n",
		m.Completed, m.Failed, m.Canceled, m.CacheEntries, m.CacheHits, m.CacheMisses)
	if m.Preemptions > 0 || m.Replans > 0 {
		fmt.Printf("served: survived %d preemptions with %d re-plans\n", m.Preemptions, m.Replans)
	}
	if eng != nil {
		om := eng.Metrics()
		fmt.Printf("served: online tier — %d completed, %d expired, %d canceled, %d handoffs, goodput %.1f tok/s\n",
			om.Completed, om.Expired, om.Canceled, om.Handoffs, om.GoodputTPS)
	}
	if *tracePath != "" {
		if err := tracer.ExportChromeTrace(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("served: wrote Chrome trace to %s (%d events, %d dropped) — load it at ui.perfetto.dev\n",
			*tracePath, len(tracer.Events()), tracer.Dropped())
	}
}

// buildOnline plans the streaming tier: a disaggregated prefill/decode
// partition of the chosen preset when one is feasible, otherwise a
// single colocated plan (stop-and-go batching). The online tier plans
// its own dedicated cluster rather than borrowing an offline pool — in
// the paper's setting the interactive and batch fleets are disjoint.
// The tier runs the engine's default limits over an 800 Gbps handoff
// fabric. The resolved Config is returned alongside the engine so the
// drift detector can solve the same analytic station the engine runs.
func buildOnline(modelName string, preset int, tr *obs.Tracer) (*online.Engine, online.Config, error) {
	spec, err := model.Lookup(modelName)
	if err != nil {
		return nil, online.Config{}, err
	}
	clu, err := cluster.Preset(preset)
	if err != nil {
		return nil, online.Config{}, err
	}
	bits := core.CandidateBits
	ind := core.ProfileIndicator(spec, bits, quant.Deterministic)
	// The plans are not set yet, so WithDefaults reports them missing;
	// the copy carries the engine's default limits all the same.
	cfg, _ := (&online.Config{Spec: spec, ChunkLen: 256, HandoffBW: cluster.Eth800BW, Tracer: tr}).WithDefaults()
	opts := core.Options{Bits: bits, TimeLimit: 15 * time.Second}
	batch := workload.Batch{Size: cfg.MaxBatch, ChunkLen: 256, Chunks: 2, GenTokens: 64}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dp, err := core.PlanDisaggregated(ctx, spec, clu, ind, opts, batch)
	if err == nil {
		cfg.PrefillPlan, cfg.PrefillCluster = dp.Prefill, dp.PrefillCluster
		cfg.DecodePlan, cfg.DecodeCluster = dp.Decode, dp.DecodeCluster
		eng, err := online.New(cfg)
		return eng, cfg, err
	}
	if !errors.Is(err, core.ErrInfeasible) {
		return nil, online.Config{}, err
	}
	// No feasible phase split (e.g. a single-device preset): colocate.
	a, err := core.New(spec, clu, ind, opts)
	if err != nil {
		return nil, online.Config{}, err
	}
	p, _, err := a.Plan(ctx, batch)
	if err != nil {
		return nil, online.Config{}, err
	}
	cfg.PrefillPlan, cfg.PrefillCluster = p, clu
	eng, err := online.New(cfg)
	return eng, cfg, err
}

// runFaults replays a seeded preemption schedule against the live fleet
// until ctx is canceled: reclaim/return events derived from the
// synthetic utilization trace are applied (clamped to what each pool
// still holds) to every pool containing the event's device class, then
// the window repeats with a fresh schedule after healing the fleet.
func runFaults(ctx context.Context, srv *serve.Server, seed uint64, horizon time.Duration) {
	trace, err := fleet.Generate(stats.NewRNG(seed), fleet.DefaultShares, 12)
	if err != nil {
		fmt.Fprintln(os.Stderr, "served: faults disabled:", err)
		return
	}
	for window := uint64(0); ctx.Err() == nil; window++ {
		events, err := trace.Preemptions(stats.NewRNG(seed+window+1), fleet.PreemptionOptions{Horizon: horizon, MaxCount: 2})
		if err != nil {
			fmt.Fprintln(os.Stderr, "served: faults disabled:", err)
			return
		}
		// Flatten the reclaim/return cycles into one ordered timeline;
		// returns falling past the horizon are applied by the final Reset.
		type action struct {
			at      time.Duration
			reclaim bool
			class   gpu.DeviceClass
			count   int
		}
		var timeline []action
		for _, ev := range events {
			timeline = append(timeline, action{ev.At, true, ev.Class, ev.Count})
			if end := ev.At + ev.Duration; end < horizon {
				timeline = append(timeline, action{end, false, ev.Class, ev.Count})
			}
		}
		sort.Slice(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

		start := time.Now()
		for _, a := range timeline {
			if wait := a.at - time.Since(start); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
			fl := srv.Fleet()
			for _, v := range fl.Views() {
				if v.Capacity[a.class] == 0 {
					continue
				}
				n := a.count
				if a.reclaim {
					if free := v.Capacity[a.class] - v.Preempted[a.class]; n > free {
						n = free
					}
					if n <= 0 {
						continue
					}
					if pv, err := fl.Preempt(v.Resource, a.class, n); err == nil {
						fmt.Printf("served: faults: online tier reclaimed %d×%s from %s (%d/%d devices left)\n",
							n, a.class, v.Resource, pv.Devices, pv.TotalDevices)
					}
				} else {
					if out := v.Preempted[a.class]; n > out {
						n = out
					}
					if n <= 0 {
						continue
					}
					if pv, err := fl.Restore(v.Resource, a.class, n); err == nil {
						fmt.Printf("served: faults: online tier returned %d×%s to %s (%d/%d devices)\n",
							n, a.class, v.Resource, pv.Devices, pv.TotalDevices)
					}
				}
			}
		}
		if wait := horizon - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		srv.Fleet().Reset()
	}
}

// parsePools parses name:preset:availability triples.
func parsePools(spec string) ([]scheduler.Resource, error) {
	var out []scheduler.Resource
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad pool spec %q (want name:preset:availability)", part)
		}
		preset, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad preset in %q: %w", part, err)
		}
		clu, err := cluster.Preset(preset)
		if err != nil {
			return nil, err
		}
		avail, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad availability in %q: %w", part, err)
		}
		out = append(out, scheduler.Resource{Name: fields[0], Cluster: clu, Availability: avail})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "served:", err)
	os.Exit(1)
}
