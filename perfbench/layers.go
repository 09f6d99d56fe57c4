package main

import (
	"repro/internal/pipeline"
)

// Per-layer metrics of the traced run. Each workload reports the layers
// its ops reach; README.md maps every metric to the end-to-end metric and
// workload it should move.

func (w *offlineWorkload) traceExtra(tr *tracer, o *outcome) error { return nil }

func (w *offlineWorkload) layers(a arms) []namedValue {
	jobs := a.spans.named("serve.job")
	selfMS := each(jobs, func(s *span) float64 { return a.spans.self[s.ID] * 1e3 })
	hits, misses := a.plain.counters["cache_hits"], a.plain.counters["cache_misses"]
	wall := a.plain.meter.wall.Seconds()
	if !w.cold {
		wait := each(jobs, func(s *span) float64 { return s.Attrs["queue_wait_s"] * 1e3 })
		cpuUS := func(name string) float64 {
			return median(each(a.spans.named(name), func(s *span) float64 { return s.CPU * 1e6 }))
		}
		return []namedValue{
			{"plan.hit_decode_us", cpuUS("plan.decode"), "us"},
			{"pipeline.simulate_us", cpuUS("pipeline.simulate"), "us"},
			{"serve.self_cpu_ms_per_job", median(selfMS), "ms"},
			{"serve.queue_wait_ms_p50", median(wait), "ms"},
			{"serve.cache_hit_ratio_warm", hits / (hits + misses), "ratio"},
			{"serve.wall_ops_per_s_warm", float64(a.plain.ops()) / wall, "1/s"},
			{"obs.trace_overhead_warm", a.overhead(a.obs), "ratio"},
		}
	}
	plans := a.spans.named("core.plan")
	attr := func(spans []*span, key string) []float64 {
		return each(spans, func(s *span) float64 { return s.Attrs[key] })
	}
	var ilpPlans []*span
	for _, s := range plans {
		if s.Attrs["ilp"] == 1 {
			ilpPlans = append(ilpPlans, s)
		}
	}
	planMS := each(plans, func(s *span) float64 { return s.CPU * 1e3 })
	costHits, costMisses := sum(attr(plans, "cost_hits")), sum(attr(plans, "cost_misses"))
	m := a.plain.meter
	return []namedValue{
		{"core.plan_cpu_ms_p50", median(planMS), "ms"},
		{"core.plan_cpu_ms_p90", quantile(planMS, 0.9), "ms"},
		{"core.configs_per_plan", mean(attr(plans, "configs")), "count"},
		{"core.search_busy_s_per_plan", mean(attr(plans, "search_busy_s")), "s"},
		{"core.cost_cache_hit_ratio", costHits / (costHits + costMisses), "ratio"},
		{"core.alloc_mb_per_plan", mean(each(plans, func(s *span) float64 { return float64(s.Alloc) / (1 << 20) })), "MiB"},
		{"ilp.solves_per_plan", mean(attr(ilpPlans, "ilp_solves")), "count"},
		{"ilp.nodes_per_plan", mean(attr(ilpPlans, "ilp_nodes")), "count"},
		{"ilp.polish_busy_s_per_plan", mean(attr(ilpPlans, "polish_busy_s")), "s"},
		{"ilp.proved_share", mean(attr(ilpPlans, "proved")), "ratio"},
		{"serve.self_cpu_ms_per_cold_job", median(selfMS), "ms"},
		{"serve.cache_hit_ratio_cold", hits / (hits + misses), "ratio"},
		{"serve.wall_ops_per_s_cold", float64(a.plain.ops()) / wall, "1/s"},
		{"serve.parallelism_cold", m.sumCPU / wall, "ratio"},
		{"runtime.gc_cpu_share", m.gcCPU / m.busyCPU, "ratio"},
		{"runtime.gc_cycles_per_op", float64(m.gcCycles) / float64(a.plain.ops()), "count"},
	}
}

// decodeGrid is the batch size × context length grid the traced run times
// pipeline.DecodeStepLatency on, over the fleet's decode plan.
var (
	decodeGridBatch = []int{1, 8, 16, 32}
	decodeGridCtx   = []int{128, 512, 1024, 2048}
)

const decodeGridRepeats = 200

func (w *onlineWorkload) traceExtra(tr *tracer, o *outcome) error {
	cfg := w.rec.Config
	sp := tr.begin(tr.op(), nil, "pipeline.decode_step")
	calls := 0
	for _, v := range decodeGridBatch {
		for _, ctx := range decodeGridCtx {
			for i := 0; i < decodeGridRepeats; i++ {
				pipeline.DecodeStepLatency(cfg.DecodePlan, cfg.Spec, cfg.DecodeCluster, v, ctx)
				calls++
			}
		}
	}
	sp.end()
	sp.set("calls", float64(calls))
	o.count("candidates_tried", float64(w.rec.CandidatesTried))
	return nil
}

// designCounters reports the design rung's engine figures.
func (w *onlineWorkload) designCounters(o *outcome) {
	met := w.first[designRung]
	o.count("decode_occupancy", met.DecodeOccupancy)
	o.count("prefill_busy", met.PrefillBusyFraction)
	o.count("decode_busy", met.DecodeBusyFraction)
	o.count("handoffs", float64(met.Handoffs))
	if len(w.steps) > designRung {
		o.count("decode_steps", float64(w.steps[designRung]))
	}
}

func (w *onlineWorkload) layers(a arms) []namedValue {
	var designCPU []float64
	for _, s := range a.spans.named("online.replay") {
		if s.Attrs["rung"] == designRung {
			designCPU = append(designCPU, s.CPU)
		}
	}
	replay := median(designCPU)
	steps := a.obs.counters["decode_steps"]
	grid := a.spans.named("pipeline.decode_step")[0]
	c := a.traced.counters
	return []namedValue{
		{"capacity.planfleet_cpu_s", a.traced.setupCPU[0], "s"},
		{"capacity.candidates_tried", c["candidates_tried"], "count"},
		{"online.replay_cpu_s", replay, "s"},
		{"online.decode_steps", steps, "count"},
		{"online.cpu_us_per_step", replay / steps * 1e6, "us"},
		{"online.decode_occupancy", c["decode_occupancy"], "requests"},
		{"online.prefill_busy", c["prefill_busy"], "ratio"},
		{"online.decode_busy", c["decode_busy"], "ratio"},
		{"online.handoffs", c["handoffs"], "count"},
		{"pipeline.decode_step_us", grid.CPU / grid.Attrs["calls"] * 1e6, "us"},
		{"obs.trace_overhead_online", a.overhead(a.obs), "ratio"},
	}
}

func (w *chainWorkload) traceExtra(tr *tracer, o *outcome) error {
	o.count("recoveries", float64(w.driver.RecoveryStats().Recoveries))
	return nil
}

func (w *chainWorkload) layers(a arms) []namedValue {
	gens := a.spans.named("transport.generate")
	prefill := a.spans.named("tinyllm.prefill")
	decode := a.spans.named("tinyllm.decode")
	tokens := sum(each(gens, func(s *span) float64 { return s.Attrs["tokens"] }))
	steps := sum(each(decode, func(s *span) float64 { return s.Attrs["steps"] }))
	cpu := func(s *span) float64 { return s.CPU }
	alloc := func(s *span) float64 { return float64(s.Alloc) }
	return []namedValue{
		{"transport.rpcs_per_token", sum(each(gens, func(s *span) float64 { return s.Attrs["rpcs"] })) / tokens, "count"},
		{"transport.overhead_cpu_ms_per_token", sum(each(gens, func(s *span) float64 { return a.spans.self[s.ID] })) / tokens * 1e3, "ms"},
		{"transport.recoveries", a.traced.counters["recoveries"], "count"},
		{"tinyllm.prefill_cpu_ms", mean(each(prefill, cpu)) * 1e3, "ms"},
		{"tinyllm.decode_cpu_ms_per_token", sum(each(decode, cpu)) / steps * 1e3, "ms"},
		{"tinyllm.alloc_kb_per_token", (sum(each(prefill, alloc)) + sum(each(decode, alloc))) / tokens / 1024, "KiB"},
	}
}
