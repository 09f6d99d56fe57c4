package maintenance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scheduler"
)

// testFleet builds a FleetState with one pool of n V100s.
func testFleet(pool string, n int) *scheduler.FleetState {
	clu := capacity.FleetSpec{gpu.V100: n}.Cluster(pool, 100)
	return scheduler.NewFleetState([]scheduler.Resource{
		{Name: pool, Cluster: clu, Availability: 1},
	})
}

// fastReq shrinks the timing knobs so retry/timeout tests stay quick.
func fastReq(targets ...Target) Request {
	return Request{
		Targets:            targets,
		StepTimeoutSeconds: 0.5,
		RetryBaseSeconds:   0.001,
	}
}

func TestRollingDrainRestoresEverything(t *testing.T) {
	fleet := testFleet("pool", 4)
	var mu sync.Mutex
	var order []string
	hooks := Hooks{
		Utilization: func(string) float64 { return 0.3 },
		Migrate: func(_ context.Context, tg Target) (int, error) {
			mu.Lock()
			order = append(order, "migrate:"+tg.Domain)
			mu.Unlock()
			return 2, nil
		},
		Restart: func(_ context.Context, tg Target) error {
			mu.Lock()
			order = append(order, "restart:"+tg.Domain)
			mu.Unlock()
			// The drain must already hold while we restart: the pool has
			// to be degraded by exactly this domain's count.
			v, err := fleet.Snapshot("pool")
			if err != nil {
				return err
			}
			if v.Devices != 4-tg.Count {
				return fmt.Errorf("restart saw %d usable devices, want %d", v.Devices, 4-tg.Count)
			}
			return nil
		},
		Health: func(context.Context, Target) error { return nil },
	}
	req := fastReq(
		Target{Pool: "pool", Class: string(gpu.V100), Count: 2, Domain: "rack-a"},
		Target{Pool: "pool", Class: string(gpu.V100), Count: 2, Domain: "rack-b"},
	)
	o, err := New(req, fleet, hooks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o.Instrument(reg, nil)
	if err := o.Run(context.Background()); err != nil {
		t.Fatalf("run: %v (status %+v)", err, o.Status())
	}

	st := o.Status()
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if st.Migrated != 4 || st.Rollback != 0 {
		t.Fatalf("migrated %d rollbacks %d, want 4/0", st.Migrated, st.Rollback)
	}
	if st.Drained != 0 {
		t.Fatalf("%d devices still drained after completion", st.Drained)
	}
	v, _ := fleet.Snapshot("pool")
	if v.Devices != 4 || len(v.Preempted) != 0 {
		t.Fatalf("pool not fully restored: %+v", v)
	}
	// Strictly rolling (Concurrency 1): rack-a finishes before rack-b
	// starts.
	want := []string{"migrate:rack-a", "restart:rack-a", "migrate:rack-b", "restart:rack-b"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("hook order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook order %v, want %v", order, want)
		}
	}
}

func TestInfeasibleDrainRejectedBeforeTouchingFleet(t *testing.T) {
	fleet := testFleet("pool", 4)
	hooks := Hooks{Utilization: func(string) float64 { return 0.9 }}
	// util 0.9 on 4 devices at rho 0.85 needs ceil(0.9*4/0.85) = 5
	// devices; draining even one cannot be feasible.
	_, err := New(fastReq(Target{Pool: "pool", Class: string(gpu.V100), Count: 1}), fleet, hooks)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) || ie.Pool != "pool" || ie.Needed != 5 {
		t.Fatalf("typed detail missing: %#v", err)
	}
	if fleet.Preemptions() != 0 {
		t.Fatal("infeasible request touched the fleet")
	}

	// Draining the whole pool is refused even when idle: at least one
	// device must remain.
	_, err = New(fastReq(Target{Pool: "pool", Class: string(gpu.V100), Count: 4}), fleet, Hooks{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("whole-pool drain: got %v, want ErrInfeasible", err)
	}
	if fleet.Preemptions() != 0 {
		t.Fatal("infeasible request touched the fleet")
	}
}

func TestPreflightStacksConcurrentDomains(t *testing.T) {
	fleet := testFleet("pool", 4)
	hooks := Hooks{Utilization: func(string) float64 { return 0.4 }}
	targets := []Target{
		{Pool: "pool", Class: string(gpu.V100), Count: 1, Domain: "a"},
		{Pool: "pool", Class: string(gpu.V100), Count: 1, Domain: "b"},
	}
	// util 0.4 on 4 devices needs ceil(0.4*4/0.85) = 2. One domain at a
	// time leaves 3 ≥ 2: feasible.
	req := fastReq(targets...)
	if _, err := New(req, fleet, hooks); err != nil {
		t.Fatalf("sequential roll should be feasible: %v", err)
	}
	// Raising utilization makes two-at-once infeasible while one at a
	// time still passes: needs 3, and 4-2=2 < 3.
	hooks.Utilization = func(string) float64 { return 0.6 }
	if _, err := New(req, fleet, hooks); err != nil {
		t.Fatalf("sequential roll should still be feasible: %v", err)
	}
	req.Concurrency = 2
	if _, err := New(req, fleet, hooks); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("concurrent roll: got %v, want ErrInfeasible", err)
	}
}

func TestHealthFailureRollsBack(t *testing.T) {
	fleet := testFleet("pool", 4)
	hooks := Hooks{
		Health: func(context.Context, Target) error {
			return fmt.Errorf("stage refuses connections")
		},
	}
	req := fastReq(Target{Pool: "pool", Class: string(gpu.V100), Count: 2, Domain: "rack-a"})
	req.MaxAttempts = 2
	o, err := New(req, fleet, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(context.Background()); err == nil {
		t.Fatal("run should fail on the health check")
	}
	st := o.Status()
	if st.State != StateFailed || st.Rollback != 1 {
		t.Fatalf("state %s rollbacks %d, want failed/1", st.State, st.Rollback)
	}
	if st.Domains[0].State != StateRolledBack {
		t.Fatalf("domain state %s, want rolled-back", st.Domains[0].State)
	}
	hc := st.Domains[0].Steps[4]
	if hc.Kind != StepHealth || hc.Attempts != 2 || hc.State != StateFailed {
		t.Fatalf("health step %+v, want 2 failed attempts", hc)
	}
	v, _ := fleet.Snapshot("pool")
	if v.Devices != 4 {
		t.Fatalf("rollback did not restore the pool: %+v", v)
	}
	if fleet.Preemptions() != 1 || fleet.Restores() != 1 {
		t.Fatalf("preempt/restore counts %d/%d, want 1/1",
			fleet.Preemptions(), fleet.Restores())
	}
}

func TestRetryThenSucceed(t *testing.T) {
	fleet := testFleet("pool", 2)
	var calls int
	hooks := Hooks{
		Health: func(context.Context, Target) error {
			calls++
			if calls == 1 {
				return fmt.Errorf("transient")
			}
			return nil
		},
	}
	o, err := New(fastReq(Target{Pool: "pool", Class: string(gpu.V100), Count: 1}), fleet, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := o.Status()
	if st.State != StateDone || calls != 2 {
		t.Fatalf("state %s after %d health calls, want done/2", st.State, calls)
	}
	if st.Domains[0].Steps[4].Attempts != 2 {
		t.Fatalf("health attempts %d, want 2", st.Domains[0].Steps[4].Attempts)
	}
}

// TestRetryDelaySchedule pins the wait after each failed step attempt
// at the default base: doubling from 100ms, capped at 16 times the base.
func TestRetryDelaySchedule(t *testing.T) {
	r, err := Request{Targets: []Target{{Pool: "pool", Class: string(gpu.V100), Count: 1}}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{6, 1600 * time.Millisecond},
		{64, 1600 * time.Millisecond},
	} {
		if got := r.retryDelay(c.attempt); got != c.want {
			t.Errorf("retryDelay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

func TestStepTimeoutBoundsWedgedHook(t *testing.T) {
	fleet := testFleet("pool", 2)
	hooks := Hooks{
		Restart: func(ctx context.Context, _ Target) error {
			<-ctx.Done() // wedged until the per-step timeout fires
			return ctx.Err()
		},
	}
	req := fastReq(Target{Pool: "pool", Class: string(gpu.V100), Count: 1})
	req.StepTimeoutSeconds = 0.05
	req.MaxAttempts = 1
	o, err := New(req, fleet, hooks)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := o.Run(context.Background()); err == nil {
		t.Fatal("wedged restart should fail the operation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("step timeout did not bound the wedge: %v", elapsed)
	}
	v, _ := fleet.Snapshot("pool")
	if v.Devices != 2 {
		t.Fatalf("rollback did not restore the pool: %+v", v)
	}
}

func TestAbortRollsBackInFlightDomain(t *testing.T) {
	fleet := testFleet("pool", 4)
	entered := make(chan struct{})
	hooks := Hooks{
		Restart: func(ctx context.Context, _ Target) error {
			close(entered)
			<-ctx.Done()
			return ctx.Err()
		},
	}
	req := fastReq(
		Target{Pool: "pool", Class: string(gpu.V100), Count: 1, Domain: "a"},
		Target{Pool: "pool", Class: string(gpu.V100), Count: 1, Domain: "b"},
	)
	req.MaxAttempts = 1
	req.StepTimeoutSeconds = 30
	o, err := New(req, fleet, hooks)
	if err != nil {
		t.Fatal(err)
	}
	o.Start(context.Background())
	<-entered
	st := o.Abort()
	if st.State != StateAborted && st.State != StateFailed {
		t.Fatalf("state %s after abort", st.State)
	}
	v, _ := fleet.Snapshot("pool")
	if v.Devices != 4 {
		t.Fatalf("abort left devices drained: %+v", v)
	}
	// Domain b never started.
	if st.Domains[1].State != StatePending {
		t.Fatalf("domain b state %s, want pending", st.Domains[1].State)
	}
}

func TestRequestValidation(t *testing.T) {
	fleet := testFleet("pool", 2)
	cases := []Request{
		{},
		{Targets: []Target{{Pool: "", Class: string(gpu.V100), Count: 1}}},
		{Targets: []Target{{Pool: "pool", Class: "", Count: 1}}},
		{Targets: []Target{{Pool: "pool", Class: string(gpu.V100), Count: 0}}},
	}
	for i, req := range cases {
		if _, err := New(req, fleet, Hooks{}); err == nil {
			t.Fatalf("case %d: invalid request accepted", i)
		}
	}
	// Unknown pool and oversized class count fail the gate, not the
	// drain.
	if _, err := New(fastReq(Target{Pool: "nope", Class: string(gpu.V100), Count: 1}), fleet, Hooks{}); err == nil {
		t.Fatal("unknown pool accepted")
	}
	if _, err := New(fastReq(Target{Pool: "pool", Class: "A100-80G", Count: 1}), fleet, Hooks{}); err == nil {
		t.Fatal("absent device class accepted")
	}
}
