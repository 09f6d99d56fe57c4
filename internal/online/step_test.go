package online

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestSteadyStepAllocs pins a decode Step with nothing else in flight to
// no allocation, colocated and disaggregated: the step price comes from
// the engine's DecodeStepper, the scratch is reused, token times have
// their room from the first token on, and no watch channel is made
// while no one watches.
func TestSteadyStepAllocs(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"colocated", colocatedConfig(t)},
		{"disaggregated", disaggConfig(t, cluster.Eth800BW)},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			e := mustEngine(t, mode.cfg)
			const n = 6
			for i := 0; i < n; i++ {
				if _, err := e.Submit(RequestSpec{PromptLen: 128, MaxTokens: 1000}); err != nil {
					t.Fatal(err)
				}
			}
			for len(e.batch) < n || len(e.prefilling)+len(e.inHandoff)+len(e.waiting)+len(e.pending) > 0 {
				if !e.Step() {
					t.Fatal("engine idle before the batch filled")
				}
			}
			if a := testing.AllocsPerRun(100, func() { e.Step() }); a != 0 {
				t.Errorf("%v allocations per steady decode step, want 0", a)
			}
			if len(e.batch) != n {
				t.Fatalf("batch of %d after the measured steps, want %d", len(e.batch), n)
			}
		})
	}
}

// TestWatch checks the watch channel's life: Watch returns the same
// open channel until the next change, Submit, Step and Cancel each close
// it, and the next Watch returns an open channel again.
func TestWatch(t *testing.T) {
	e := mustEngine(t, colocatedConfig(t))
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if a, b := e.Watch(), e.Watch(); a != b {
		t.Fatal("two Watch calls with no change between returned different channels")
	}
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"Submit", func() error { _, err := e.Submit(RequestSpec{ID: "w", PromptLen: 64, MaxTokens: 4}); return err }},
		{"Step", func() error { e.Step(); return nil }},
		{"Cancel", func() error { return e.Cancel("w") }},
	} {
		ch := e.Watch()
		if closed(ch) {
			t.Fatalf("before %s: Watch returned a closed channel", op.name)
		}
		if err := op.do(); err != nil {
			t.Fatal(err)
		}
		if !closed(ch) {
			t.Fatalf("%s left the watch channel open", op.name)
		}
	}
	if closed(e.Watch()) {
		t.Fatal("Watch after the changes returned a closed channel")
	}
}

// parkCtx counts Loop's iterations, one Err call each, and hands each
// park to the test: Loop calls Done just before it blocks while idle.
// It reports whether the engine then holds an open watch channel, the
// one a Submit or Cancel closes to wake the loop.
type parkCtx struct {
	context.Context
	e      *Engine
	iters  int
	parked chan bool
}

func (c *parkCtx) Err() error {
	c.iters++
	return c.Context.Err()
}

func (c *parkCtx) Done() <-chan struct{} {
	c.e.mu.Lock()
	held := c.e.watch != nil
	c.e.mu.Unlock()
	select {
	case c.parked <- held:
	case <-c.Context.Done():
	}
	return c.Context.Done()
}

// TestLoopParksWhileIdle counts the steps Loop takes around one
// request: one idle step before the submission, the request's own
// steps, one idle step after it, and none while nothing changes. Each
// park must hold an open watch channel; a channel the idle step itself
// closed would make the loop spin.
func TestLoopParksWhileIdle(t *testing.T) {
	cfg := colocatedConfig(t)
	spec := RequestSpec{PromptLen: 300, MaxTokens: 5}
	ref := mustEngine(t, cfg)
	if _, err := ref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for ref.Step() {
		busy++
	}

	e := mustEngine(t, cfg)
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &parkCtx{Context: base, e: e, parked: make(chan bool)}
	done := make(chan struct{})
	go func() {
		e.Loop(ctx)
		close(done)
	}()
	park := func(when string) {
		if !<-ctx.parked {
			t.Fatalf("%s: Loop parked on a watch channel its own step closed", when)
		}
	}
	park("before the submission")
	if _, err := e.Submit(spec); err != nil {
		t.Fatal(err)
	}
	park("after the request")
	cancel()
	<-done
	// The last iteration is the one that sees the cancellation.
	if steps := ctx.iters - 1; steps != busy+2 {
		t.Fatalf("Loop took %d steps, want %d: %d for the request and one idle step on each side", steps, busy+2, busy)
	}
	if m, want := e.Metrics(), ref.Metrics(); !reflect.DeepEqual(m, want) {
		t.Fatalf("Loop metrics\n%+v\nstepped directly\n%+v", m, want)
	}
}

// BenchmarkReplay replays a fixed seeded ShareGPT trace on the
// disaggregated config, one fresh engine per iteration.
func BenchmarkReplay(b *testing.B) {
	cfg := disaggConfig(b, cluster.Eth800BW)
	profile := workload.ShareGPT(stats.NewRNG(5), 64).Filter(cfg.Spec.MaxPos)
	specs := Arrivals(stats.NewRNG(7), profile, 2.0, 300, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if m := e.Replay(specs, 0); m.Completed != int64(len(specs)) {
			b.Fatalf("completed %d of %d", m.Completed, len(specs))
		}
	}
}

// TestNewRejectsInvalidDecodePlan: the engine prices steps from curves
// built for a validated plan, so New refuses a decode plan that does not
// validate.
func TestNewRejectsInvalidDecodePlan(t *testing.T) {
	cfg := colocatedConfig(t)
	p := *cfg.PrefillPlan
	p.Stages = slices.Clone(p.Stages)
	p.Stages[0].Bits = slices.Clone(p.Stages[0].Bits)
	p.Stages[0].Bits[0] = 5
	cfg.PrefillPlan = &p
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a decode plan with a 5-bit layer")
	}
}

// TestByAdmissionOrder checks byAdmission against a stable sort by the
// admission key (priority desc, arrival, submission order) on shuffled
// batches with many ties on priority and arrival.
func TestByAdmissionOrder(t *testing.T) {
	rng := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		rs := make([]*request, 1+rng.Intn(200))
		for i := range rs {
			rs[i] = &request{seq: int64(i), arrival: float64(rng.Intn(4)), spec: RequestSpec{Priority: rng.Intn(3)}}
		}
		for i := len(rs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			rs[i], rs[j] = rs[j], rs[i]
		}
		want := slices.Clone(rs)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.spec.Priority != b.spec.Priority {
				return a.spec.Priority > b.spec.Priority
			}
			if a.arrival != b.arrival {
				return a.arrival < b.arrival
			}
			return a.seq < b.seq
		})
		byAdmission(rs)
		if !slices.Equal(rs, want) {
			t.Fatalf("trial %d: byAdmission order differs from the stable sort over %d requests", trial, len(rs))
		}
	}
}

// TestPendingOrder checks that Submit keeps future arrivals in the
// order a stable sort by arrival gives: by arrival, ties in submission
// order.
func TestPendingOrder(t *testing.T) {
	e := mustEngine(t, colocatedConfig(t))
	rng := stats.NewRNG(9)
	for i := 0; i < 100; i++ {
		if _, err := e.Submit(RequestSpec{PromptLen: 64, MaxTokens: 4, ArrivalSeconds: float64(1 + rng.Intn(5))}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.IsSortedFunc(e.pending, func(a, b *request) int {
		if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}) {
		t.Fatal("pending arrivals out of (arrival, submission) order")
	}
}
