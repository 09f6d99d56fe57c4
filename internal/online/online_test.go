package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

var testBatch = workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 32}

// colocatedConfig plans one pool (cluster 9, 4×V100) serving both
// phases.
func colocatedConfig(t *testing.T) Config {
	t.Helper()
	spec := model.OPT13B
	clu := cluster.MustPreset(9)
	ind := core.ProfileIndicator(spec, []int{3, 4, 8, 16}, quant.Deterministic)
	a, err := core.New(spec, clu, ind, core.Options{Bits: []int{3, 4, 8, 16}, TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := a.Plan(context.Background(), testBatch)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Spec: spec, PrefillPlan: p, PrefillCluster: clu, ChunkLen: 256}
}

// disaggConfig plans split pools on the heterogeneous cluster 2
// (A100 prefills, V100s decode).
func disaggConfig(t testing.TB, handoffBW float64) Config {
	t.Helper()
	spec := model.OPT13B
	clu := cluster.MustPreset(2)
	ind := core.ProfileIndicator(spec, []int{3, 4, 8, 16}, quant.Deterministic)
	dp, err := core.PlanDisaggregated(context.Background(), spec, clu, ind,
		core.Options{Bits: []int{3, 4, 8, 16}, TimeLimit: 10 * time.Second}, testBatch)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Spec:           spec,
		PrefillPlan:    dp.Prefill,
		PrefillCluster: dp.PrefillCluster,
		DecodePlan:     dp.Decode,
		DecodeCluster:  dp.DecodeCluster,
		ChunkLen:       256,
		HandoffBW:      handoffBW,
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestColocatedClosedLoopDeterministic(t *testing.T) {
	cfg := colocatedConfig(t)
	run := func() Metrics {
		e := mustEngine(t, cfg)
		specs := Arrivals(stats.NewRNG(42), workload.Fixed(64, 256, 24), 2.0, 24, 0)
		e.SubmitAll(specs)
		return e.RunToCompletion()
	}
	m1, m2 := run(), run()
	if m1.Completed != 24 {
		t.Fatalf("completed %d of 24 (expired %d, canceled %d, rejected %d)",
			m1.Completed, m1.Expired, m1.Canceled, m1.Rejected)
	}
	if m1.CompletedTokens != 24*24 {
		t.Fatalf("completed tokens = %d, want %d", m1.CompletedTokens, 24*24)
	}
	if m1.TTFT.P50 <= 0 || m1.TBT.P50 <= 0 || m1.GoodputTPS <= 0 {
		t.Fatalf("degenerate latency metrics: %+v", m1)
	}
	if m1.Handoffs != 0 {
		t.Fatalf("colocated run recorded %d handoffs", m1.Handoffs)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", m1, m2)
	}
}

func TestDisaggregatedHandoffAccounting(t *testing.T) {
	e := mustEngine(t, disaggConfig(t, cluster.Eth800BW))
	specs := Arrivals(stats.NewRNG(7), workload.Fixed(64, 256, 16), 4.0, 16, 0)
	e.SubmitAll(specs)
	m := e.RunToCompletion()
	if m.Completed != 16 {
		t.Fatalf("completed %d of 16: %+v", m.Completed, m)
	}
	// Every multi-token request migrated pools exactly once.
	if m.Handoffs != 16 {
		t.Fatalf("handoffs = %d, want 16", m.Handoffs)
	}
	if m.HandoffTransfers+m.HandoffReplays != m.Handoffs {
		t.Fatalf("handoff modes %d+%d don't sum to %d",
			m.HandoffTransfers, m.HandoffReplays, m.Handoffs)
	}
	for _, v := range e.List() {
		if v.HandoffMode == "" {
			t.Fatalf("request %s finished without a handoff mode", v.ID)
		}
	}
}

// TestContinuousAdmission is the iteration-level batching property: a
// late request starts decoding while an earlier one is still in the
// batch — its first token lands before the earlier request finishes.
func TestContinuousAdmission(t *testing.T) {
	e := mustEngine(t, disaggConfig(t, cluster.Eth800BW))
	a, err := e.Submit(RequestSpec{ID: "a", PromptLen: 256, MaxTokens: 64, ArrivalSeconds: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit(RequestSpec{ID: "b", PromptLen: 256, MaxTokens: 8, ArrivalSeconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e.RunToCompletion()
	va, _ := e.Status(a)
	vb, _ := e.Status(b)
	if va.State != StateCompleted || vb.State != StateCompleted {
		t.Fatalf("states: a=%s b=%s", va.State, vb.State)
	}
	if vb.TokenTimes[0] >= va.Finish {
		t.Fatalf("no continuous admission: b's first token at %v, a finished at %v",
			vb.TokenTimes[0], va.Finish)
	}
}

func TestDeadlinesAndCancellation(t *testing.T) {
	e := mustEngine(t, colocatedConfig(t))
	// Impossible SLO: expires (queued or mid-flight) and counts a miss.
	tight, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 64, DeadlineSeconds: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Comfortable SLO: completes and counts a hit.
	loose, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 8, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled before it runs.
	gone, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 8, ArrivalSeconds: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(gone); err != nil {
		t.Fatal(err)
	}
	m := e.RunToCompletion()
	vt, _ := e.Status(tight)
	if vt.State != StateExpired {
		t.Fatalf("tight-SLO request state = %s, want expired", vt.State)
	}
	vl, _ := e.Status(loose)
	if vl.State != StateCompleted {
		t.Fatalf("loose-SLO request state = %s, want completed", vl.State)
	}
	vg, _ := e.Status(gone)
	if vg.State != StateCanceled {
		t.Fatalf("cancelled request state = %s, want canceled", vg.State)
	}
	if m.DeadlineMisses < 1 || m.DeadlineHits < 1 {
		t.Fatalf("deadline accounting: hits=%d misses=%d", m.DeadlineHits, m.DeadlineMisses)
	}
	// Cancel is idempotent on finished requests.
	if err := e.Cancel(gone); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := colocatedConfig(t)
	cfg.QueueCapacity = 2
	e := mustEngine(t, cfg)
	if _, err := e.Submit(RequestSpec{PromptLen: 0, MaxTokens: 4}); !errors.Is(err, ErrRejected) {
		t.Fatalf("zero prompt: %v", err)
	}
	if _, err := e.Submit(RequestSpec{PromptLen: cfg.Spec.MaxPos, MaxTokens: 4}); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-long request: %v", err)
	}
	// prompt_len + max_tokens overflows int and must not wrap into range.
	if _, err := e.Submit(RequestSpec{PromptLen: 1, MaxTokens: math.MaxInt}); !errors.Is(err, ErrRejected) {
		t.Fatalf("overflowing max_tokens: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 4, ArrivalSeconds: 1e5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 4, ArrivalSeconds: 1e5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: %v", err)
	}
	if _, err := e.Status("nope"); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("unknown status: %v", err)
	}
	if err := e.Cancel("nope"); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("unknown cancel: %v", err)
	}
	m := e.Metrics()
	if m.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", m.Rejected)
	}
}

func TestPriorityOrdersAdmission(t *testing.T) {
	cfg := colocatedConfig(t)
	cfg.MaxPrefillBatch = 1
	e := mustEngine(t, cfg)
	lo, err := e.Submit(RequestSpec{ID: "lo", PromptLen: 256, MaxTokens: 4, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := e.Submit(RequestSpec{ID: "hi", PromptLen: 256, MaxTokens: 4, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.RunToCompletion()
	vlo, _ := e.Status(lo)
	vhi, _ := e.Status(hi)
	if vhi.TokenTimes[0] >= vlo.TokenTimes[0] {
		t.Fatalf("priority inversion: hi first token %v, lo %v", vhi.TokenTimes[0], vlo.TokenTimes[0])
	}
}

// TestLoopLiveMode exercises the daemon path under -race: a running
// Loop, concurrent submitters, and watch-channel readers.
func TestLoopLiveMode(t *testing.T) {
	e := mustEngine(t, colocatedConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loopDone sync.WaitGroup
	loopDone.Add(1)
	go func() {
		defer loopDone.Done()
		e.Loop(ctx)
	}()

	const n = 8
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				if _, err := e.Submit(RequestSpec{PromptLen: 256, MaxTokens: 4}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.After(30 * time.Second)
	for {
		if m := e.Metrics(); m.Completed == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("live loop stalled: %+v", e.Metrics())
		case <-e.Watch():
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	loopDone.Wait()
}

// TestMetricsReservoirBounded: the latency accumulators hold at most
// reservoirCap samples no matter how many requests flow through, a
// scrape is pure (two back-to-back Metrics calls agree), and the
// sampled percentiles track the exact population within tolerance.
func TestMetricsReservoirBounded(t *testing.T) {
	cfg := colocatedConfig(t)
	cfg.QueueCapacity = 1 << 20
	e := mustEngine(t, cfg)
	const n = 3 * reservoirCap
	specs := Arrivals(stats.NewRNG(99), workload.Fixed(64, 200, 1), 50.0, n, 0)
	e.SubmitAll(specs)
	m := e.RunToCompletion()
	if m.Completed != n {
		t.Fatalf("completed %d of %d: %+v", m.Completed, n, m)
	}
	if e.waitS.Len() > reservoirCap || e.ttftS.Len() > reservoirCap {
		t.Fatalf("reservoirs exceed capacity: wait=%d ttft=%d cap=%d",
			e.waitS.Len(), e.ttftS.Len(), reservoirCap)
	}
	if e.waitS.Count() != n || e.ttftS.Count() != n {
		t.Fatalf("counts: wait=%d ttft=%d, want %d", e.waitS.Count(), e.ttftS.Count(), n)
	}
	if m2 := e.Metrics(); !reflect.DeepEqual(m, m2) {
		t.Fatalf("scrape mutated state:\n%+v\n%+v", m, m2)
	}

	// Exact populations from the per-request views.
	waits := make([]float64, 0, n)
	ttfts := make([]float64, 0, n)
	for _, v := range e.List() {
		waits = append(waits, v.QueueWait)
		ttfts = append(ttfts, v.TTFT)
	}
	close := func(name string, got, want float64) {
		t.Helper()
		if want <= 0 {
			t.Fatalf("%s: degenerate exact percentile %v", name, want)
		}
		if rel := (got - want) / want; rel < -0.10 || rel > 0.10 {
			t.Fatalf("%s: sampled %v vs exact %v (rel %.3f)", name, got, want, rel)
		}
	}
	close("wait p50", m.QueueWait.P50, stats.Percentile(waits, 50))
	close("wait p95", m.QueueWait.P95, stats.Percentile(waits, 95))
	close("ttft p50", m.TTFT.P50, stats.Percentile(ttfts, 50))
	close("ttft p95", m.TTFT.P95, stats.Percentile(ttfts, 95))
}

// TestReplayPacesAdmission contrasts Replay with SubmitAll under a
// tight admission threshold: SubmitAll charges the whole future trace
// against QueueCapacity and sheds most of it, while Replay's
// just-in-time pacing only lets admission control see load that has
// actually arrived — so the same trace completes in full.
func TestReplayPacesAdmission(t *testing.T) {
	cfg := colocatedConfig(t)
	cfg.QueueCapacity = 16
	profile := workload.Fixed(8, 512, 8)
	specs := Arrivals(stats.NewRNG(11), profile, 4.0, 200, 0)

	bulk := mustEngine(t, cfg)
	bulk.SubmitAll(specs)
	mBulk := bulk.RunToCompletion()
	if mBulk.Rejected == 0 {
		t.Fatal("SubmitAll against a tight queue should shed load")
	}

	paced := mustEngine(t, cfg)
	mPaced := paced.Replay(specs, 0)
	if mPaced.Rejected != 0 {
		t.Fatalf("Replay rejected %d of a sustainable trace", mPaced.Rejected)
	}
	if mPaced.Completed != 200 {
		t.Fatalf("Replay completed %d of 200", mPaced.Completed)
	}
}

// TestReplayDeterministic re-runs the same trace and expects identical
// metrics; the busy-time accounting must also be internally consistent.
func TestReplayDeterministic(t *testing.T) {
	cfg := disaggConfig(t, cluster.Eth800BW)
	profile := workload.ShareGPT(stats.NewRNG(5), 32).Filter(cfg.Spec.MaxPos)
	specs := Arrivals(stats.NewRNG(7), profile, 2.0, 100, 0)

	m1 := mustEngine(t, cfg).Replay(specs, 0)
	m2 := mustEngine(t, cfg).Replay(specs, 0)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", m1, m2)
	}
	if m1.PrefillBusyFraction <= 0 || m1.PrefillBusyFraction > 1 {
		t.Errorf("prefill busy fraction %.3f out of (0,1]", m1.PrefillBusyFraction)
	}
	if m1.DecodeBusyFraction <= 0 || m1.DecodeBusyFraction > 1 {
		t.Errorf("decode busy fraction %.3f out of (0,1]", m1.DecodeBusyFraction)
	}
	if m1.DecodeOccupancy < m1.DecodeBusyFraction {
		t.Errorf("occupancy %.3f below busy fraction %.3f — batches average under one request",
			m1.DecodeOccupancy, m1.DecodeBusyFraction)
	}
}

// TestKVBudgetProperty drives seeded arrival traces through Step in
// both modes, with a tight queue and random cancellations, and checks
// the KV accounting after every step: the decode batch never holds more
// KV than the budget, kvInUse is exactly the batch's footprint, and the
// batch never exceeds MaxBatch. Long requests make the budget bind.
func TestKVBudgetProperty(t *testing.T) {
	modes := []struct {
		name string
		cfg  func(*testing.T) Config
	}{
		{"colocated", colocatedConfig},
		{"disaggregated", func(t *testing.T) Config { return disaggConfig(t, cluster.Eth800BW) }},
	}
	for _, mode := range modes {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				cfg := mode.cfg(t)
				// MaxBatch above what the budget holds of the long
				// requests, so the KV budget is what binds.
				cfg.QueueCapacity, cfg.MaxBatch = 8, 96
				e := mustEngine(t, cfg)
				rng := stats.NewRNG(seed)
				profile := workload.ShareGPT(rng, 64).Filter(cfg.Spec.MaxPos)
				profile.Requests = append(profile.Requests, workload.Fixed(64, 1500, 500).Requests...)
				specs := Arrivals(rng, profile, 8.0, 300, 0)
				var ids []string
				peak, i := 0.0, 0
				for steps := 0; ; steps++ {
					for i < len(specs) && (specs[i].ArrivalSeconds <= e.Clock() || e.futureRoom(4)) {
						if id, err := e.Submit(specs[i]); err == nil {
							ids = append(ids, id)
						}
						i++
					}
					if len(ids) > 0 && rng.Intn(20) == 0 {
						if err := e.Cancel(ids[rng.Intn(len(ids))]); err != nil {
							t.Fatal(err)
						}
					}
					more := e.Step()
					var sum int64
					for _, r := range e.batch {
						sum += r.kv
					}
					if e.kvInUse != sum || e.kvInUse > e.kvBudget || len(e.batch) > e.cfg.MaxBatch {
						t.Fatalf("step %d: kvInUse %d, batch footprint %d, budget %d, batch %d of %d",
							steps, e.kvInUse, sum, e.kvBudget, len(e.batch), e.cfg.MaxBatch)
					}
					peak = max(peak, float64(e.kvInUse)/float64(e.kvBudget))
					if !more && i >= len(specs) {
						break
					}
				}
				if e.kvInUse != 0 || len(e.batch) != 0 {
					t.Fatalf("drained engine holds %d KV bytes in %d requests", e.kvInUse, len(e.batch))
				}
				if peak < 0.9 {
					t.Fatalf("peak KV use %.2f of the budget: the budget never bound, so the check proves nothing", peak)
				}
			})
		}
	}
}
