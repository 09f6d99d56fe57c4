// Command fleetsim demonstrates harvesting idle heterogeneous capacity
// for offline LLM serving: it synthesizes a production-fleet utilization
// trace (Fig. 1), derives harvestable clusters with availability equal
// to their idle share, plans every job with the SplitQuant assigner, and
// prints the resulting schedule.
//
//	fleetsim               # default job mix
//	fleetsim -months 6     # longer trace window
//	fleetsim -faults       # preemption stress: re-plan on worst-case shrink
//	fleetsim -capacity     # closed loop: plan a fleet, replay a diurnal day, autoscale
//	fleetsim -maintenance  # zero-downtime roll: maintain every device during the day replay
//
// With -faults, fleetsim derives a seeded preemption schedule from the
// same trace (the online tier reclaiming devices over the baseline
// makespan), shrinks every pool by each class's peak concurrent outage,
// and re-plans the job mix on the degraded fleet to show the makespan
// cost of surviving the worst instant of the schedule.
//
// With -capacity, fleetsim runs the capacity planner's closed loop: it
// sizes the cheapest fleet for the peak of a diurnal arrival-rate
// profile, replays the whole compressed day of seeded traffic through
// the online engine on the recommended configuration, prints the
// analytic queue-wait prediction against the simulated percentiles
// segment by segment, and then races the autoscaler against a seeded
// preemption schedule on the same fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"time"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/perf"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	months := flag.Int("months", 12, "trace window in months")
	seed := flag.Uint64("seed", 1, "trace seed")
	faults := flag.Bool("faults", false, "derive a preemption schedule and re-plan on the worst-case degraded fleet")
	faultSeed := flag.Uint64("fault-seed", 1, "preemption schedule seed")
	capMode := flag.Bool("capacity", false, "closed-loop capacity planning: size a fleet for a diurnal day, replay it, autoscale under preemptions")
	capPeak := flag.Float64("cap-peak", 2.0, "peak arrival rate of the diurnal profile, req/s (with -capacity or -maintenance)")
	maintMode := flag.Bool("maintenance", false, "zero-downtime roll: rolling-maintain every device of a planned fleet during the diurnal day replay")
	tracePath := flag.String("trace", "", "write the -capacity day replay as Chrome trace-event JSON (virtual clock)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	trace, err := fleet.Generate(stats.NewRNG(*seed), fleet.DefaultShares, *months)
	if err != nil {
		fatal(err)
	}
	if *capMode {
		if err := capacityLoop(ctx, trace, *faultSeed, *capPeak, *tracePath); err != nil {
			fatal(err)
		}
		return
	}
	if *maintMode {
		if err := maintenanceLoop(ctx, *capPeak); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("fleet idle capacity: %.0f%% of GPU hours\n\n", trace.IdleCapacityFraction()*100)

	// Harvest pools: Table III clusters whose device classes exist in
	// the fleet; availability = idle share of the scarcest class used.
	avail := func(classes ...gpu.DeviceClass) float64 {
		a := 1.0
		for _, c := range classes {
			if idle := 1 - trace.MeanUtil(c); idle < a {
				a = idle
			}
		}
		return a
	}
	resources := []scheduler.Resource{
		{Name: "pool-T4V100", Cluster: cluster.MustPreset(5), Availability: avail(gpu.T4, gpu.V100)},
		{Name: "pool-P100V100", Cluster: cluster.MustPreset(6), Availability: avail(gpu.P100, gpu.V100)},
		{Name: "pool-T4x4", Cluster: cluster.MustPreset(8), Availability: avail(gpu.T4)},
		{Name: "pool-V100x4", Cluster: cluster.MustPreset(9), Availability: avail(gpu.V100)},
	}
	for _, r := range resources {
		fmt.Printf("resource %-14s %-26s availability %.0f%%\n", r.Name, r.Cluster, r.Availability*100)
	}

	batch := func(B int) workload.Batch {
		return workload.Batch{Size: B, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	}
	jobs := []scheduler.Job{
		{ID: "nightly-summaries", Model: "opt-30b", Batch: batch(32), Requests: 2048},
		{ID: "eval-checkpoints", Model: "opt-13b", Batch: batch(32), Requests: 4096},
		{ID: "synthetic-data", Model: "opt-13b", Batch: batch(32), Requests: 8192},
		{ID: "doc-classify", Model: "opt-1.3b", Batch: batch(32), Requests: 16384},
	}
	sched, err := scheduler.Build(ctx, jobs, resources,
		core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-20s %-14s %10s %12s %10s\n", "job", "resource", "tkn/s", "duration", "plan")
	for _, a := range sched.Assignments {
		fmt.Printf("%-20s %-14s %10.1f %11.1fs  %s\n", a.JobID, a.Resource, a.Throughput, a.Duration, a.Plan)
	}
	for _, id := range sched.Unplaceable {
		fmt.Printf("%-20s UNPLACEABLE (no pool fits)\n", id)
	}
	fmt.Printf("\nmakespan: %.1fs across %d pools\n", sched.Makespan, len(resources))

	if *faults {
		if err := replanUnderFaults(ctx, trace, *faultSeed, jobs, resources, sched); err != nil {
			fatal(err)
		}
	}
}

// replanUnderFaults derives the preemption schedule the online tier
// would impose over the baseline makespan, shrinks every pool by each
// class's peak concurrent outage, and re-plans the job mix on what is
// left — warm-started from the baseline schedule's plans, so the
// degraded solve prunes most of the configuration space.
func replanUnderFaults(ctx context.Context, trace *fleet.Trace, seed uint64, jobs []scheduler.Job, resources []scheduler.Resource, baseline *scheduler.Schedule) error {
	baseMakespan := baseline.Makespan
	horizon := time.Duration(baseMakespan * float64(time.Second))
	if horizon <= 0 {
		horizon = time.Minute
	}
	events, err := trace.Preemptions(stats.NewRNG(seed), fleet.PreemptionOptions{Horizon: horizon, MaxCount: 2})
	if err != nil {
		return err
	}
	fmt.Printf("\npreemption schedule over the %.0fs makespan (seed %d):\n", horizon.Seconds(), seed)
	for _, ev := range events {
		fmt.Printf("  t=%7.1fs reclaim %d×%-9s for %6.1fs\n",
			ev.At.Seconds(), ev.Count, ev.Class, ev.Duration.Seconds())
	}
	peak := fleet.PeakOutage(events)
	fmt.Printf("peak concurrent outage:")
	for _, s := range trace.Shares {
		if n := peak[s.Class]; n > 0 {
			fmt.Printf(" %d×%s", n, s.Class)
		}
	}
	fmt.Println()

	// Worst-case degraded fleet: every pool loses its classes' peak
	// outage (clamped so a pool keeps at least zero devices; fully
	// emptied pools drop out).
	var degraded []scheduler.Resource
	for _, r := range resources {
		clu := r.Cluster
		for class, n := range peak {
			have := clu.ClassCount(class)
			if have == 0 || n == 0 {
				continue
			}
			take := n
			if take > have {
				take = have
			}
			if take >= clu.TotalDevices() {
				clu = nil
				break
			}
			next, err := clu.Shrink(class, take)
			if err != nil {
				return err
			}
			clu = next
		}
		if clu == nil {
			fmt.Printf("resource %-14s fully reclaimed at peak — dropped\n", r.Name)
			continue
		}
		degraded = append(degraded, scheduler.Resource{Name: r.Name, Cluster: clu, Availability: r.Availability})
	}
	if len(degraded) == 0 {
		return fmt.Errorf("every pool fully reclaimed at peak outage")
	}
	for _, r := range degraded {
		fmt.Printf("degraded %-14s %-26s availability %.0f%%\n", r.Name, r.Cluster, r.Availability*100)
	}

	sched, err := scheduler.Rebuild(ctx, jobs, degraded,
		core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4}, baseline)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-20s %-14s %10s %12s %10s\n", "job", "resource", "tkn/s", "duration", "plan")
	for _, a := range sched.Assignments {
		fmt.Printf("%-20s %-14s %10.1f %11.1fs  %s\n", a.JobID, a.Resource, a.Throughput, a.Duration, a.Plan)
	}
	for _, id := range sched.Unplaceable {
		fmt.Printf("%-20s UNPLACEABLE (no degraded pool fits)\n", id)
	}
	fmt.Printf("\ndegraded makespan: %.1fs (baseline %.1fs, %+.0f%%)\n",
		sched.Makespan, baseMakespan, (sched.Makespan/baseMakespan-1)*100)
	return nil
}

// Diurnal day shape for -capacity: 24 hourly segments compressed to
// capSegSeconds of virtual time each, rate following a sinusoid that
// troughs around 03:00 and peaks around 15:00.
const (
	capSegments   = 24
	capSegSeconds = 150.0
)

func diurnalRate(hour int, peak float64) float64 {
	shape := (1 + math.Sin(2*math.Pi*float64(hour-9)/24)) / 2
	return peak * (0.25 + 0.75*shape)
}

// capacityLoop is the -capacity closed loop: plan the cheapest fleet
// for the diurnal peak, replay the whole seeded day through the online
// engine on the recommended configuration, compare analytic queue-wait
// predictions with the simulated percentiles per segment and for the
// day, then drive the autoscaler against a seeded preemption schedule
// on the same fleet.
func capacityLoop(ctx context.Context, trace *fleet.Trace, faultSeed uint64, peak float64, tracePath string) error {
	fmt.Printf("diurnal day: %d segments × %.0fs virtual, rate %.2f–%.2f req/s (peak at 15:00)\n",
		capSegments, capSegSeconds, diurnalRate(3, peak), diurnalRate(15, peak))
	t0 := time.Now()
	rec, profile, err := perf.PlanCapacityFleet(ctx, peak)
	if err != nil {
		return err
	}
	fmt.Printf("recommended fleet: %s at %.2f/h (%d candidates tried, %d pruned, %.1fs)\n",
		rec.Fleet, rec.CostPerHour, rec.CandidatesTried, rec.CandidatesPruned, time.Since(t0).Seconds())
	fmt.Printf("  design point: prefill rho %.2f, decode rho %.2f, admission threshold %d, decode concurrency %d\n\n",
		rec.Analysis.Prefill.Rho, rec.Analysis.Decode.Rho, rec.AdmissionThreshold, rec.DecodeConcurrency)

	specs := diurnalDay(profile, peak, nil)
	engCfg := rec.Config
	var tracer *obs.Tracer
	if tracePath != "" {
		// The engine stamps every span with explicit virtual timestamps,
		// so the tracer's clock is only a fallback; raise the buffer cap —
		// a full day of decode steps is far more than the default.
		tracer = obs.NewVirtualTracer(func() float64 { return 0 })
		tracer.SetLimit(1 << 21)
		engCfg.Tracer = tracer
	}
	eng, err := online.New(engCfg)
	if err != nil {
		return err
	}
	m := eng.Replay(specs, 0)
	if tracer != nil {
		if err := tracer.ExportChromeTrace(tracePath); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (%d events, %d dropped) — load it at ui.perfetto.dev\n\n",
			tracePath, len(tracer.Events()), tracer.Dropped())
	}

	// Per-segment: analytic station at the segment's rate vs the
	// simulated waits of requests that arrived in the segment.
	ws := rec.Analysis.Workload
	simWait := make([][]float64, capSegments)
	simTTFT := make([][]float64, capSegments)
	for _, v := range eng.List() {
		if v.State != online.StateCompleted {
			continue
		}
		seg := int(v.ArrivalSeconds / capSegSeconds)
		if seg < 0 || seg >= capSegments {
			continue
		}
		simWait[seg] = append(simWait[seg], v.QueueWait)
		simTTFT[seg] = append(simTTFT[seg], v.TTFT)
	}
	prices, err := online.NewPrices(rec.Config)
	if err != nil {
		return err
	}
	stations := make([]*capacity.PrefillStation, capSegments)
	weights := make([]float64, capSegments)
	fmt.Printf("%-6s %8s %6s %22s %22s %6s\n", "hour", "rate", "rho", "wait p95 (ana/sim)", "ttft p95 (ana/sim)", "n")
	for h := 0; h < capSegments; h++ {
		rate := diurnalRate(h, peak)
		st, err := capacity.SolvePrefill(prices, ws, rate)
		if err != nil {
			return err
		}
		stations[h], weights[h] = st, rate
		if h%3 != 0 {
			continue // print every third hour; all segments feed the mixture
		}
		fmt.Printf("%02d:00  %8.2f %6.2f %10.3fs /%8.3fs %10.3fs /%8.3fs %6d\n",
			h, rate, st.Rho,
			st.WaitP95, stats.Percentile(simWait[h], 95),
			st.TTFTP95, stats.Percentile(simTTFT[h], 95), len(simWait[h]))
	}
	anaWaits, anaTTFTs := capacity.MixWaitTTFT(stations, weights, 50, 95)
	fmt.Printf("\nday totals: %d arrivals, %d completed, %d rejected\n", len(specs), m.Completed, m.Rejected)
	fmt.Printf("  wait p50 %.3fs/%.3fs  wait p95 %.3fs/%.3fs  ttft p95 %.3fs/%.3fs (analytic/simulated)\n",
		anaWaits[0], m.QueueWait.P50, anaWaits[1], m.QueueWait.P95, anaTTFTs[1], m.TTFT.P95)
	fmt.Printf("  prefill busy fraction %.3f, mean decode occupancy %.2f requests\n",
		m.PrefillBusyFraction, m.DecodeOccupancy)
	agree := math.Abs(anaWaits[1]-m.QueueWait.P95) / math.Max(m.QueueWait.P95, 1e-9)
	fmt.Printf("  queue-wait p95 agreement: %.0f%% apart\n", agree*100)
	if m.TTFT.P95 > perf.CapacitySLO.TTFTP95 || m.QueueWait.P95 > perf.CapacitySLO.QueueWaitP95 {
		fmt.Printf("  WARNING: simulated day busts the SLO the fleet was sized for\n")
	}

	// Drift detector verdict: the same analytic-vs-observed comparison a
	// live daemon runs on every scrape, here fed the whole day at once.
	// Note the station solves at the day's *mean* rate while the diurnal
	// profile swings around it, so moderate drift is expected shape error,
	// not a broken model.
	det := capacity.NewDriftDetector(rec.Config, "online-prefill", 0, 0)
	rep := det.Observe(eng.List(), m)
	fmt.Printf("\ndrift detector (day mean rate %.2f req/s, %d observations): verdict %s\n",
		rep.Rate, rep.Observations, rep.Verdict)
	if rep.Verdict != "insufficient-data" && rep.Verdict != "saturated" {
		fmt.Printf("  wait p95 %.3fs predicted / %.3fs observed (%+.0f%%)\n",
			rep.PredictedWaitP95, rep.ObservedWaitP95, rep.WaitP95Error*100)
		fmt.Printf("  ttft p95 %.3fs predicted / %.3fs observed (%+.0f%%)\n",
			rep.PredictedTTFTP95, rep.ObservedTTFTP95, rep.TTFTP95Error*100)
		fmt.Printf("  prefill busy %.3f predicted / %.3f observed (%+.0f%%)\n",
			rep.PredictedBusyFraction, rep.ObservedBusyFraction, rep.BusyFractionError*100)
	}

	// Autoscaler vs preemptions: replay the day's utilization signal on
	// the recommended fleet while the online tier reclaims devices per a
	// seeded schedule; the scaler orders capacity with a provisioning
	// lead time and returns it when the day cools down.
	fmt.Printf("\nautoscaler vs preemption (seed %d, 60s observations, 120s provision delay):\n", faultSeed)
	scaleClass := gpu.V100
	if rec.Fleet[scaleClass] == 0 {
		for c := range rec.Fleet {
			scaleClass = c
			break
		}
	}
	fs := scheduler.NewFleetState([]scheduler.Resource{{Name: "serving", Cluster: rec.Cluster, Availability: 1}})
	as, err := capacity.NewAutoscaler(fs, capacity.AutoscalerConfig{
		Pool:           "serving",
		Class:          scaleClass,
		TargetRho:      perf.CapacitySLO.MaxRho,
		ProvisionDelay: 120,
		Cooldown:       180,
		MinDevices:     rec.Fleet.Devices(),
		// The day's drift verdict feeds back: a recalibrate/saturated
		// report makes the scaler re-advise on the observed busy
		// fraction before its first decision, cooldown waived.
		Drift: det,
	})
	if err != nil {
		return err
	}
	horizon := time.Duration(capSegments * capSegSeconds * float64(time.Second))
	events, err := trace.Preemptions(stats.NewRNG(faultSeed), fleet.PreemptionOptions{Horizon: horizon, MeanEvents: 6})
	if err != nil {
		return err
	}
	baseDevices := rec.Cluster.TotalDevices()
	const obsWindow = 60.0
	backlog := 0.0 // unserved work in device-seconds
	for now := 0.0; now < horizon.Seconds(); now += obsWindow {
		for _, ev := range events {
			at, end := ev.At.Seconds(), (ev.At + ev.Duration).Seconds()
			if at > now-obsWindow && at <= now {
				if _, err := fs.Preempt("serving", ev.Class, ev.Count); err == nil {
					fmt.Printf("  t=%6.0fs  online tier reclaims %d×%s\n", now, ev.Count, ev.Class)
				}
			}
			if end > now-obsWindow && end <= now {
				if _, err := fs.Restore("serving", ev.Class, ev.Count); err == nil {
					fmt.Printf("  t=%6.0fs  online tier returns  %d×%s\n", now, ev.Count, ev.Class)
				}
			}
		}
		view, err := fs.Snapshot("serving")
		if err != nil {
			return err
		}
		usable := view.Devices
		if usable < 1 {
			usable = 1
		}
		// Work-conserving demand signal: the segment's design load on the
		// base fleet arrives regardless of outages; whatever the usable
		// devices cannot serve in the window accrues as backlog, so the
		// measured utilization climbs past the offered rate during a
		// reclaim — that climb is what the scaler reacts to.
		seg := int(now/capSegSeconds) % capSegments
		arriving := diurnalRate(seg, peak) / peak * perf.CapacitySLO.MaxRho * float64(baseDevices) * obsWindow
		offered := backlog + arriving
		served := math.Min(offered, float64(usable)*obsWindow)
		backlog = offered - served
		evs, err := as.Observe(now, offered/(float64(usable)*obsWindow))
		if err != nil {
			return err
		}
		for _, ev := range evs {
			fmt.Printf("  t=%6.0fs  autoscaler %-9s %d×%s  %s\n", now, ev.Action, ev.Count, ev.Class, ev.Detail)
		}
	}
	final, _ := fs.Snapshot("serving")
	fmt.Printf("fleet after the day: %d devices intact (%d usable), %d preemptions survived\n",
		final.TotalDevices, final.Devices, fs.Preemptions())
	return nil
}

// diurnalDay builds the seeded day trace: one Poisson process whose
// rate steps every segment, drawing requests from profile. inflate, when
// it has an entry for a segment, scales that segment's rate.
func diurnalDay(profile *workload.Profile, peak float64, inflate map[int]float64) []online.RequestSpec {
	rng := stats.NewRNG(2024)
	var specs []online.RequestSpec
	t := 0.0
	for t < capSegments*capSegSeconds {
		seg := int(t / capSegSeconds)
		rate := diurnalRate(seg, peak)
		if f, ok := inflate[seg]; ok {
			rate *= f
		}
		t += rng.Exp(rate)
		if t >= capSegments*capSegSeconds {
			break
		}
		req := profile.Requests[rng.Intn(len(profile.Requests))]
		maxTok := req.OutputLen
		if maxTok < 1 {
			maxTok = 1
		}
		specs = append(specs, online.RequestSpec{PromptLen: req.PromptLen, MaxTokens: maxTok, ArrivalSeconds: t})
	}
	return specs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
