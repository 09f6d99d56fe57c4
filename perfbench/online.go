package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The online-day workload: capacity.PlanFleet sizes a disaggregated
// fleet for the design peak during set-up; each block replays one seeded
// diurnal day through a fresh online.Engine at every rung of the rate
// ladder. The engine runs on a virtual clock, so every latency it reports
// is a property of the simulation and repeats exactly for a seed.
const (
	onlineModel = "opt-13b"
	// onlinePeak is the design arrival rate (req/s) at the day's peak.
	onlinePeak = 2.0
	// The day is 24 hourly segments of daySegSeconds virtual seconds.
	daySegments   = 24
	daySegSeconds = 60.0
	// A request meets the SLO when it completes with TTFT ≤ sloTTFT and
	// mean TBT ≤ sloTBT; slo_max_rate is the highest rung whose share of
	// such requests reaches sloTarget.
	sloTTFT   = 1.0
	sloTBT    = 0.05
	sloTarget = 0.90
)

// rateLadder multiplies the diurnal rate; rung 1 is the design rate.
var rateLadder = []float64{0.75, 1, 1.25, 1.5}

const designRung = 1

// warmupRequests is the length of the set-up replay.
const warmupRequests = 50

// diurnalRate follows a sinusoid that troughs around 03:00 and peaks
// around 15:00, between a quarter of the peak and the peak.
func diurnalRate(hour int, peak float64) float64 {
	shape := (1 + math.Sin(2*math.Pi*float64(hour-9)/24)) / 2
	return peak * (0.25 + 0.75*shape)
}

type onlineWorkload struct {
	spec    *model.Spec
	profile *workload.Profile
	days    [][]online.RequestSpec // one trace per rung
	rec     *capacity.Recommendation
	obs     bool
	// first holds block 0's metrics of each rung, whether or not its
	// checks passed; later blocks must repeat them exactly.
	first []online.Metrics
	// steps counts decode steps per rung when the engine tracer is on.
	steps     []int
	behaviour []namedValue
	maxRate   float64
}

func (w *onlineWorkload) name() string { return "online-day" }

func (w *onlineWorkload) prepare(seed uint64) (uint64, error) {
	spec, err := model.Lookup(onlineModel)
	if err != nil {
		return 0, err
	}
	w.spec = spec
	// The request-length profile is fixed, so set-up (fleet planning)
	// does the same work for every seed; the seed draws the day.
	w.profile = workload.ShareGPT(stats.NewRNG(5), 64).Filter(spec.MaxPos)
	w.days = w.days[:0]
	for _, mult := range rateLadder {
		w.days = append(w.days, dayTrace(seed, w.profile, mult))
	}
	return fingerprint(w.days), nil
}

// dayTrace draws one seeded day. Each hour holds exactly rate × length
// arrivals at uniformly drawn times (a Poisson process conditioned on its
// count), and request lengths cycle through the profile in a seeded
// order, so every seed offers the same load and length mix; the seed
// moves arrival times and the order of lengths. Every rung uses the same
// seed, so rungs differ only in rate.
func dayTrace(seed uint64, profile *workload.Profile, mult float64) []online.RequestSpec {
	rng := stats.NewRNG(seed)
	order := rng.Perm(len(profile.Requests))
	var specs []online.RequestSpec
	for seg := 0; seg < daySegments; seg++ {
		times := make([]float64, int(math.Round(diurnalRate(seg, onlinePeak)*mult*daySegSeconds)))
		for i := range times {
			times[i] = (float64(seg) + rng.Float64()) * daySegSeconds
		}
		sort.Float64s(times)
		for _, t := range times {
			req := profile.Requests[order[len(specs)%len(order)]]
			specs = append(specs, online.RequestSpec{PromptLen: req.PromptLen, MaxTokens: max(req.OutputLen, 1), ArrivalSeconds: t})
		}
	}
	return specs
}

func (w *onlineWorkload) setup(cfg runConfig) error {
	w.obs = cfg.obs
	rec, err := capacity.PlanFleet(context.Background(), capacity.PlanInput{
		Spec:    w.spec,
		Profile: w.profile,
		Rate:    onlinePeak,
		SLO:     capacity.SLO{QueueWaitP95: 0.5, TTFTP95: sloTTFT, TBTMean: sloTBT, MaxRho: 0.85},
		Classes: []gpu.DeviceClass{gpu.V100, gpu.A100},
	})
	if err != nil {
		return err
	}
	w.rec = rec
	w.first = make([]online.Metrics, len(rateLadder))
	w.behaviour, w.maxRate, w.steps = nil, 0, nil
	// One warm-up replay of the design day's first requests, excluded
	// from the metrics like the other workloads' warm-up op.
	eng, err := online.New(rec.Config)
	if err != nil {
		return err
	}
	eng.Replay(w.days[designRung][:warmupRequests], 0)
	return nil
}

func (w *onlineWorkload) teardown() { w.rec = nil }

// replay runs one rung's day on a fresh engine.
func (w *onlineWorkload) replay(rung int, m *meter, tr *tracer) (*online.Engine, online.Metrics, error) {
	cfg := w.rec.Config
	var et *obs.Tracer
	if w.obs {
		et = obs.NewVirtualTracer(func() float64 { return 0 })
		et.SetLimit(1 << 22)
		cfg.Tracer = et
	}
	specs := w.days[rung]
	sp := tr.begin(tr.op(), nil, "online.replay")
	m.begin()
	eng, err := online.New(cfg)
	var met online.Metrics
	if err == nil {
		met = eng.Replay(specs, 0)
	}
	m.end(rung, len(specs))
	sp.end()
	if err != nil {
		return nil, met, err
	}
	sp.set("rung", float64(rung))
	sp.set("requests", float64(len(specs)))
	if et != nil {
		steps := 0
		for _, ev := range et.Events() {
			if ev.Track == "decode" && ev.Name == "step" {
				steps++
			}
		}
		if et.Dropped() > 0 {
			return nil, met, fmt.Errorf("engine tracer dropped %d events", et.Dropped())
		}
		w.steps = append(w.steps, steps)
	}
	return eng, met, nil
}

func (w *onlineWorkload) block(idx int, m *meter, tr *tracer, o *outcome) error {
	for rung := range rateLadder {
		n := len(w.days[rung])
		o.attempted += n
		eng, met, err := w.replay(rung, m, tr)
		if err != nil {
			return err
		}
		if idx == 0 {
			w.first[rung] = met
		}
		if met.Completed+met.Expired+met.Rejected != int64(n) || met.Canceled != 0 || met.Queued != 0 || met.Running != 0 {
			o.fail(n, "rung ×%.2f: %d completed + %d expired + %d rejected of %d submitted (%d canceled, %d left)",
				rateLadder[rung], met.Completed, met.Expired, met.Rejected, n, met.Canceled, met.Queued+met.Running)
			continue
		}
		if met.Handoffs == 0 {
			o.fail(n, "rung ×%.2f: no prefill→decode handoffs on a disaggregated fleet", rateLadder[rung])
			continue
		}
		if idx > 0 {
			if met != w.first[rung] {
				o.fail(n, "rung ×%.2f: block %d replay differs from block 0", rateLadder[rung], idx)
			}
			continue
		}
		if err := w.readBehaviour(rung, eng, met); err != nil {
			o.fail(n, "rung ×%.2f: %v", rateLadder[rung], err)
		}
	}
	return nil
}

// readBehaviour reads block 0's replay of a rung request by request from
// Engine.List: the attainment of every rung, and the latency quantities
// at the design rate, computed exactly rather than from the engine's
// reservoir digest.
func (w *onlineWorkload) readBehaviour(rung int, eng *online.Engine, met online.Metrics) error {
	views := eng.List()
	att := attainment(views, len(w.days[rung]))
	if att >= sloTarget {
		w.maxRate = math.Max(w.maxRate, onlinePeak*rateLadder[rung])
	}
	if rung != designRung {
		return nil
	}
	var ttft, tbt []float64
	for _, v := range views {
		if v.State != online.StateCompleted {
			continue
		}
		ttft = append(ttft, v.TTFT)
		for i := 1; i < len(v.TokenTimes); i++ {
			tbt = append(tbt, v.TokenTimes[i]-v.TokenTimes[i-1])
		}
	}
	if len(ttft) == 0 || len(tbt) == 0 {
		return fmt.Errorf("no completed multi-token requests at the design rate")
	}
	w.behaviour = []namedValue{
		{"ttft_p50_s", stats.Percentile(ttft, 50), "s"},
		{"ttft_p99_s", stats.Percentile(ttft, 99), "s"},
		{"tbt_p50_s", stats.Percentile(tbt, 50), "s"},
		{"tbt_p99_s", stats.Percentile(tbt, 99), "s"},
		{"goodput_tok_per_s", met.GoodputTPS, "tok/s"},
		{"slo_attain", att, "ratio"},
	}
	return nil
}

func (w *onlineWorkload) finish(o *outcome) {
	w.designCounters(o)
	o.behaviour = append(o.behaviour, w.behaviour...)
	o.addBehaviour("slo_max_rate", w.maxRate, "req/s")
}

// attainment is the share of submitted requests that completed within
// the TTFT and mean-TBT limits; expired and rejected requests are misses.
func attainment(views []online.RequestView, submitted int) float64 {
	ok := 0
	for _, v := range views {
		if v.State == online.StateCompleted && v.TTFT <= sloTTFT && v.TBT <= sloTBT {
			ok++
		}
	}
	return float64(ok) / float64(submitted)
}
