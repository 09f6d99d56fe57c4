package serve

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

// harvestPools are three harvested pools of different speed and
// availability.
func harvestPools() []scheduler.Resource {
	return []scheduler.Resource{
		{Name: "harvest-5", Cluster: cluster.MustPreset(5), Availability: 0.6},
		{Name: "harvest-8", Cluster: cluster.MustPreset(8), Availability: 0.9},
		{Name: "harvest-9", Cluster: cluster.MustPreset(9), Availability: 0.4},
	}
}

// placementServer is a worker-less server over resources on a fake
// clock, driven by runQueued.
func placementServer(t *testing.T, resources []scheduler.Resource) *Server {
	t.Helper()
	return bareServer(t, Config{
		Resources: resources,
		Planner:   core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
	})
}

// runQueued executes every queued job on the calling goroutine, in
// queue order, as a server with one worker would.
func runQueued(s *Server) {
	for {
		s.mu.Lock()
		queued := false
		for _, j := range s.queue {
			queued = queued || j.state == StateQueued
		}
		s.mu.Unlock()
		if !queued {
			return
		}
		s.execute(s.nextJob())
	}
}

// runJobs submits specs in order, runs them and returns their views.
func runJobs(t *testing.T, s *Server, specs []JobSpec) []JobView {
	t.Helper()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = mustSubmit(t, s, spec).ID
	}
	runQueued(s)
	views := make([]JobView, len(ids))
	for i, id := range ids {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	return views
}

// poolLoads reads every pool's simulated load.
func poolLoads(s *Server) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	loads := map[string]float64{}
	for name, p := range s.pools {
		loads[name] = p.load
	}
	return loads
}

// checkLoads fails unless each pool's load equals want's entry (absent
// = 0) up to float rounding.
func checkLoads(t *testing.T, s *Server, want map[string]float64) {
	t.Helper()
	for name, got := range poolLoads(s) {
		if math.Abs(got-want[name]) > 1e-9*math.Max(1, want[name]) {
			t.Errorf("pool %s load %v, want %v", name, got, want[name])
		}
	}
}

// makespan is the largest per-pool sum of the views' simulated seconds.
func makespan(views []JobView) float64 {
	loads := map[string]float64{}
	var m float64
	for _, v := range views {
		loads[v.Resource] += v.SimSeconds
		m = math.Max(m, loads[v.Resource])
	}
	return m
}

// TestPlacementBasicSchedule: every job runs once, on one pool, and
// each pool's load is the simulated seconds of the jobs placed on it.
func TestPlacementBasicSchedule(t *testing.T) {
	s := placementServer(t, harvestPools())
	views := runJobs(t, s, []JobSpec{
		{Model: "opt-30b", Batch: 32, Requests: 320},
		{Model: "opt-13b", Batch: 32, Requests: 640},
		{Model: "opt-13b", Batch: 16, Requests: 160},
	})
	want := map[string]float64{}
	var total float64
	for _, v := range views {
		if v.State != StateCompleted || v.Resource == "" || v.SimSeconds <= 0 || v.Throughput <= 0 || v.Plan == "" {
			t.Fatalf("degenerate job %+v", v)
		}
		want[v.Resource] += v.SimSeconds
		total += v.SimSeconds
	}
	checkLoads(t, s, want)
	if m := makespan(views); m > total {
		t.Fatalf("makespan %v exceeds serial time %v", m, total)
	}
}

// TestPlacementPoolsBeatOne: three pools finish the same jobs sooner
// than the first of them alone.
func TestPlacementPoolsBeatOne(t *testing.T) {
	specs := []JobSpec{
		{Model: "opt-13b", Batch: 32, Requests: 640},
		{Model: "opt-13b", Batch: 32, Requests: 640},
		{Model: "opt-13b", Batch: 32, Requests: 640},
	}
	multi := makespan(runJobs(t, placementServer(t, harvestPools()), specs))
	single := makespan(runJobs(t, placementServer(t, harvestPools()[:1]), specs))
	if multi >= single {
		t.Fatalf("3 pools makespan %v not below 1 pool %v", multi, single)
	}
}

// TestPlacementAvailabilityStretchesDuration: halving a pool's
// availability doubles a job's simulated duration on it.
func TestPlacementAvailabilityStretchesDuration(t *testing.T) {
	dur := func(avail float64) float64 {
		s := placementServer(t, []scheduler.Resource{{Name: "r", Cluster: cluster.MustPreset(9), Availability: avail}})
		return runJobs(t, s, []JobSpec{{Model: "opt-13b", Batch: 16, Requests: 64}})[0].SimSeconds
	}
	full, half := dur(1), dur(0.5)
	if half/full < 1.9 || half/full > 2.1 {
		t.Fatalf("halving availability should double duration: %v vs %v", full, half)
	}
}

// TestPlacementHeavyJobAvoidsSlowPool: with one fast pool (4×V100) and
// one weak pool (4×T4 at low availability), the heavy job lands on the
// fast one.
func TestPlacementHeavyJobAvoidsSlowPool(t *testing.T) {
	s := placementServer(t, []scheduler.Resource{
		{Name: "weak", Cluster: cluster.MustPreset(8), Availability: 0.3},
		{Name: "fast", Cluster: cluster.MustPreset(9), Availability: 1},
	})
	views := runJobs(t, s, []JobSpec{
		{Model: "opt-30b", Batch: 32, Requests: 960},
		{Model: "opt-13b", Batch: 16, Requests: 16},
	})
	if views[0].Resource != "fast" {
		t.Fatalf("heavy job placed on %s", views[0].Resource)
	}
}

// TestPlacementTieGoesToFirstPool: between pools where a job would
// finish at the same time, it goes to the one listed first.
func TestPlacementTieGoesToFirstPool(t *testing.T) {
	s := placementServer(t, []scheduler.Resource{
		{Name: "a", Cluster: cluster.MustPreset(9), Availability: 1},
		{Name: "b", Cluster: cluster.MustPreset(9), Availability: 1},
	})
	spec := JobSpec{Model: "opt-13b", Batch: 16, Requests: 64}
	var got []string
	for _, v := range runJobs(t, s, []JobSpec{spec, spec, spec}) {
		got = append(got, v.Resource)
	}
	if strings.Join(got, ",") != "a,b,a" {
		t.Fatalf("identical jobs on identical pools placed on %v, want a, b, a", got)
	}
}

// TestPlacementJobFitsNoPool: a job no pool can hold is rejected at
// admission with ErrInfeasible, while the other jobs run.
func TestPlacementJobFitsNoPool(t *testing.T) {
	giant := JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 64}
	small := JobSpec{Model: "opt-13b", Batch: 16, Requests: 64}

	s := placementServer(t, []scheduler.Resource{{Name: "tiny", Cluster: cluster.MustPreset(1), Availability: 1}})
	if _, err := s.Submit(giant); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("giant job: got %v, want ErrInfeasible", err)
	}
	if v := runJobs(t, s, []JobSpec{small})[0]; v.State != StateCompleted {
		t.Fatalf("small job: %s (%s)", v.State, v.Error)
	}
}

// TestPlacementUnplaceableJobReported: a job that no pool can hold any
// more when it runs is reported failed with ErrInfeasible, while the
// other jobs run. The giant job passes admission on the intact 4×V100
// pool, which then loses three devices before the job is placed.
func TestPlacementUnplaceableJobReported(t *testing.T) {
	giant := JobSpec{Model: "llama3.3-70b", Batch: 32, Requests: 64}
	small := JobSpec{Model: "opt-13b", Batch: 16, Requests: 64}

	s := placementServer(t, []scheduler.Resource{{Name: "v100s", Cluster: cluster.MustPreset(9), Availability: 1}})
	ids := []string{mustSubmit(t, s, giant).ID, mustSubmit(t, s, small).ID}
	if _, err := s.Fleet().Preempt("v100s", gpu.V100, 3); err != nil {
		t.Fatal(err)
	}
	runQueued(s)
	g, _ := s.Job(ids[0])
	if g.State != StateFailed || !strings.Contains(g.Error, core.ErrInfeasible.Error()) {
		t.Fatalf("giant job on the shrunk pool: %s (%s), want failed as infeasible", g.State, g.Error)
	}
	v, _ := s.Job(ids[1])
	if v.State != StateCompleted {
		t.Fatalf("small job: %s (%s)", v.State, v.Error)
	}
	checkLoads(t, s, map[string]float64{"v100s": v.SimSeconds})
}

// TestPlacementCanceledContext: a job whose context is canceled while
// it is priced is reported as canceled, not as infeasible anywhere.
func TestPlacementCanceledContext(t *testing.T) {
	s := placementServer(t, harvestPools())
	v := mustSubmit(t, s, JobSpec{Model: "opt-13b", Batch: 16, Requests: 64})
	j := s.nextJob()
	s.baseCancel()
	s.execute(j)
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || len(j.tried) != 0 {
		t.Fatalf("job %s (%s), pools tried %v; want canceled with none tried", got.State, got.Error, j.tried)
	}
	if m := s.Metrics(); m.Failed != 0 || m.Canceled != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	checkLoads(t, s, nil)
}

// TestNewValidatesResources: New refuses no pools, a pool whose
// availability is outside (0, 1], and two pools of one name.
func TestNewValidatesResources(t *testing.T) {
	bad := [][]scheduler.Resource{nil}
	for _, avail := range []float64{0, -0.5, 1.5, math.NaN()} {
		bad = append(bad, []scheduler.Resource{{Name: "idle", Cluster: cluster.MustPreset(5), Availability: avail}})
	}
	bad = append(bad, []scheduler.Resource{harvestPools()[0], harvestPools()[0]})
	for _, resources := range bad {
		if _, err := New(Config{Resources: resources}); err == nil {
			t.Errorf("resources %+v accepted", resources)
		}
	}
}

// TestPlacementMatchesGreedy is the placement property: on random job
// lists over three pools, each job runs on the pool a greedy computed
// by hand picks — the least load plus duration, the first pool on a
// tie — and each pool's load equals the greedy's. The durations are
// the ones serve reports for each job run alone on each pool.
func TestPlacementMatchesGreedy(t *testing.T) {
	pools := harvestPools()
	models := []string{"opt-1.3b", "opt-13b", "opt-30b"}
	rng := stats.NewRNG(46)
	used := map[string]bool{}
	for trial := 0; trial < 4; trial++ {
		specs := make([]JobSpec, rng.IntRange(3, 7))
		for i := range specs {
			b := []int{16, 32}[rng.Intn(2)]
			specs[i] = JobSpec{Model: models[rng.Intn(len(models))], Batch: b, Requests: b * rng.IntRange(1, 40)}
		}
		dur := make([][]float64, len(specs)) // job × pool
		for i := range dur {
			dur[i] = make([]float64, len(pools))
		}
		for p := range pools {
			for i, v := range runJobs(t, placementServer(t, pools[p:p+1]), specs) {
				dur[i][p] = v.SimSeconds
			}
		}
		want := make([]float64, len(pools))
		s := placementServer(t, pools)
		for i, v := range runJobs(t, s, specs) {
			best := 0
			for p := 1; p < len(pools); p++ {
				if want[p]+dur[i][p] < want[best]+dur[i][best] {
					best = p
				}
			}
			want[best] += dur[i][best]
			used[v.Resource] = true
			if v.Resource != pools[best].Name {
				t.Fatalf("trial %d job %d %+v: placed on %s, greedy picks %s", trial, i, specs[i], v.Resource, pools[best].Name)
			}
		}
		wantLoads := map[string]float64{}
		for p, l := range want {
			wantLoads[pools[p].Name] = l
		}
		checkLoads(t, s, wantLoads)
	}
	if len(used) != len(pools) {
		t.Fatalf("jobs ran on %v only; the property needs every pool used", used)
	}
}

// TestLoadInvariant: once every job has ended, each pool's load is the
// simulated seconds of the jobs that ran on it — with a job preempted
// and restored mid-run, one canceled while running, one canceled while
// queued, and one requeued by a drain timeout. At every batch boundary
// before that, it also holds the running job's remaining batches, at
// the per-batch seconds of its current plan.
func TestLoadInvariant(t *testing.T) {
	var s *Server
	ranOn := map[string]string{} // job → pool, recorded at every batch
	lastSim := map[string]float64{}
	byRole := map[string]string{}
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "v100s", Cluster: cluster.MustPreset(9), Availability: 1},
			{Name: "t4s", Cluster: cluster.MustPreset(8), Availability: 0.9},
		},
		Planner: core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
		BatchHook: func(id string, done, total int) {
			// Mid-run, the pool's load is what its jobs ran plus this
			// job's remaining batches at its current per-batch seconds.
			s.mu.Lock()
			pool := s.jobs[id].resource
			ran := 0.0
			for _, j := range s.jobs {
				if j.resource == pool && (j.state.terminal() || j.id == id) {
					ran += j.simSeconds
				}
			}
			perBatch := s.jobs[id].simSeconds - lastSim[id]
			lastSim[id] = s.jobs[id].simSeconds
			want, got := ran+float64(total-done)*perBatch, s.pools[pool].load
			s.mu.Unlock()
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("after batch %d/%d of %s: pool %s load %v, want %v", done, total, id, pool, got, want)
			}
			ranOn[id] = pool
			class := map[string]gpu.DeviceClass{"v100s": gpu.V100, "t4s": gpu.T4}[pool]
			switch {
			case id == byRole["preempted"] && done == 2:
				if _, err := s.Fleet().Preempt(pool, class, 2); err != nil {
					t.Error(err)
				}
			case id == byRole["preempted"] && done == 4:
				if _, err := s.Fleet().Restore(pool, class, 2); err != nil {
					t.Error(err)
				}
			case id == byRole["canceled"] && done == 3:
				if _, err := s.Cancel(id); err != nil {
					t.Error(err)
				}
			case id == byRole["drained"] && done == 2:
				// What Shutdown does when DrainTimeout fires.
				s.requeueRunning()
				s.baseCancel()
			}
		},
	}
	s = bareServer(t, cfg)
	submit := func(role string, spec JobSpec) {
		byRole[role] = mustSubmit(t, s, spec).ID
	}
	submit("preempted", JobSpec{Model: "opt-1.3b", Batch: 16, Requests: 16 * 8})
	submit("plain", JobSpec{Model: "opt-13b", Batch: 32, Requests: 32 * 5})
	submit("canceled", JobSpec{Model: "opt-13b", Batch: 16, Requests: 16 * 6})
	submit("queued", JobSpec{Model: "opt-1.3b", Batch: 8, Requests: 8 * 3})
	submit("late", JobSpec{Model: "opt-1.3b", Batch: 32, Requests: 32 * 4})
	submit("drained", JobSpec{Model: "opt-13b", Batch: 8, Requests: 8 * 5})
	if _, err := s.Cancel(byRole["queued"]); err != nil {
		t.Fatal(err)
	}
	runQueued(s)

	want := map[string]float64{}
	for role, id := range byRole {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		wantState := map[string]State{"canceled": StateCanceled, "queued": StateCanceled, "drained": StateQueued}[role]
		if wantState == "" {
			wantState = StateCompleted
		}
		if v.State != wantState {
			t.Fatalf("%s job %s (%s), want %s", role, v.State, v.Error, wantState)
		}
		if role == "preempted" && v.Replans < 2 {
			t.Fatalf("preempted job replanned %d times, want 2", v.Replans)
		}
		want[ranOn[id]] += v.SimSeconds
	}
	if want[""] != 0 {
		t.Fatalf("%v simulated seconds on no pool", want[""])
	}
	checkLoads(t, s, want)
}

// TestLoadInvariantConcurrentWorkers is TestLoadInvariant with two live
// workers racing over two pools while jobs are preempted and restored
// mid-run, canceled, and canceled by Shutdown; meaningful under -race.
func TestLoadInvariantConcurrentWorkers(t *testing.T) {
	const jobs = 12
	finished := make(chan string, jobs)
	var srv *Server
	var mu sync.Mutex
	out := 0 // V100s reclaimed by the hook, at most one at a time
	cfg := Config{
		Resources: []scheduler.Resource{
			{Name: "v100s", Cluster: cluster.MustPreset(9), Availability: 1},
			{Name: "t4s", Cluster: cluster.MustPreset(8), Availability: 0.9},
		},
		Planner: core.Options{Method: core.MethodHeuristic, Theta: 1, OrderingLimit: 4},
		BatchHook: func(id string, done, total int) {
			mu.Lock()
			switch {
			case done == 2 && out == 0:
				if _, err := srv.Fleet().Preempt("v100s", gpu.V100, 1); err != nil {
					t.Error(err)
				}
				out++
			case done == 3 && out == 1:
				if _, err := srv.Fleet().Restore("v100s", gpu.V100, 1); err != nil {
					t.Error(err)
				}
				out--
			}
			mu.Unlock()
			if done == total {
				finished <- id
			}
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		spec := JobSpec{Model: []string{"opt-1.3b", "opt-13b"}[i%2], Batch: 8 << (i % 3), Requests: 40 + 8*i}
		v := mustSubmit(t, srv, spec)
		if i%4 == 3 {
			go srv.Cancel(v.ID)
		}
	}
	<-finished // Shutdown cancels what is still queued after one job ends
	shutdown(t, srv)

	want := map[string]float64{}
	for _, v := range srv.Jobs() {
		if v.State == StateFailed {
			t.Fatalf("job %s failed: %s", v.ID, v.Error)
		}
		want[v.Resource] += v.SimSeconds
	}
	if want[""] != 0 {
		t.Fatalf("%v simulated seconds on no pool", want[""])
	}
	checkLoads(t, srv, want)
}
