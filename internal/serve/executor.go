package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/scheduler"
)

// worker drains the queue: it takes the next queued job and executes
// it. Workers are not pinned to pools; placement picks the pool.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.execute(j)
	}
}

// nextJob blocks until a job is queued, pops the first in queue order
// and moves it to planning — or returns nil once the server stops.
func (s *Server) nextJob() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*job)
			if j.state == StateQueued { // else canceled while queued
				j.state = StatePlanning
				return j
			}
		}
		if s.stopping {
			return nil
		}
		s.cond.Wait()
	}
}

// claimPool blocks until no job executes on the pool, then marks it
// claimed: at most one job executes per pool at a time, and a placed
// job waits for its own pool.
func (s *Server) claimPool(p *poolLoad) {
	s.mu.Lock()
	for p.claimed() {
		s.cond.Wait()
	}
	p.claimedAt = s.clk.Now()
	s.mu.Unlock()
}

// releasePool frees a claim and re-wakes the workers: a placed job may
// be waiting for exactly this pool.
func (s *Server) releasePool(p *poolLoad) {
	s.mu.Lock()
	p.busySec += s.clk.Now().Sub(p.claimedAt).Seconds()
	p.claimedAt = time.Time{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// jobOptions derives the planner options for one job from the server
// base configuration plus per-job overrides.
func (s *Server) jobOptions(j *job) core.Options {
	opts := s.cfg.Planner
	if j.spec.Theta > 0 {
		opts.Theta = j.spec.Theta
	}
	if j.spec.Method != "" {
		opts.Method = core.Method(j.spec.Method)
	}
	opts.Progress = nil // per-config progress is not surfaced per job
	return opts
}

// offer is one pool's price for a job's remaining batches.
type offer struct {
	res  *scheduler.Resource
	pool *poolLoad
	snap scheduler.View
	plan *plan.Plan
	sim  *pipeline.Result
	hit  bool
	// sec is the remaining batches' simulated seconds on the pool:
	// batches × sim.TotalSeconds / availability.
	sec float64
	// planSec is the planner time the offer took (0 on a cache hit).
	planSec float64
}

// price plans and simulates the job's remaining batches on a snapshot
// of pool res through the plan cache. The cache keys on the snapshot's
// cluster: a degraded pool plans under its own fingerprint, and a pool
// restored to a composition it already planned is answered from the
// cache, simulation included.
func (s *Server) price(ctx context.Context, j *job, res *scheduler.Resource, snap scheduler.View, remaining int, opts core.Options) (offer, error) {
	tr := s.tel.tr
	planBegin := tr.Now()
	p, sim, rep, hit, err := s.cache.PlanAndSimulate(ctx, j.mspec, snap.Cluster, j.batch, opts)
	if err != nil {
		return offer{}, err
	}
	if tr != nil {
		cacheState := "cold"
		if hit {
			cacheState = "hit"
		}
		tr.Span(res.Name, "plan", planBegin, tr.Now()-planBegin,
			map[string]any{"job": j.id, "cache": cacheState})
	}
	o := offer{
		res: res, pool: s.pools[res.Name], snap: snap, plan: p, sim: sim, hit: hit,
		sec: float64(remaining) * sim.TotalSeconds / res.Availability,
	}
	if !hit {
		o.planSec = rep.SolveSeconds
		s.tel.planHist.Observe(o.planSec)
	}
	s.tel.planSeconds.Add(o.planSec)
	return o, nil
}

// capacityErr reports whether err says the job does not fit a pool.
func capacityErr(err error) bool {
	return errors.Is(err, core.ErrInfeasible) || errors.Is(err, pipeline.ErrOOM)
}

// place prices the job's remaining batches on every pool that is not
// fully reclaimed and that the job has not proven infeasible on, and
// reserves the pool where the job finishes earliest: the least pool
// load plus offer seconds, the pool listed first in Config.Resources on
// a tie. A pool that proves infeasible is recorded in j.tried. The
// returned offer's planSec covers every pool priced. place fails when
// no pool can run the job.
func (s *Server) place(ctx context.Context, j *job, remaining int, opts core.Options) (offer, error) {
	var buf [4]offer
	offers := buf[:0]
	var firstErr error
	var planSec float64
	for i := range s.cfg.Resources {
		res := &s.cfg.Resources[i]
		if j.tried[res.Name] {
			continue
		}
		snap, err := s.fleet.Snapshot(res.Name)
		if err != nil {
			return offer{}, err
		}
		if snap.Cluster == nil {
			continue // fully reclaimed for now
		}
		o, err := s.price(ctx, j, res, snap, remaining, opts)
		if err != nil {
			if ctx.Err() != nil || !capacityErr(err) {
				return offer{}, err
			}
			s.mu.Lock()
			s.markTriedLocked(j, res.Name)
			s.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		planSec += o.planSec
		offers = append(offers, o)
	}
	if len(offers) == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("every pool untried by the job is fully reclaimed: %w", core.ErrInfeasible)
		}
		return offer{}, firstErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best := &offers[0]
	for i := 1; i < len(offers); i++ {
		if o := &offers[i]; o.pool.load+o.sec < best.pool.load+best.sec {
			best = o
		}
	}
	best.planSec = planSec
	j.resource = best.res.Name
	s.reserveLocked(j, best.sec)
	return *best, nil
}

// reserveLocked makes sec the unrun remainder the job holds on its pool
// (j.resource; none while unplaced), moving the pool's load by the
// change (caller holds s.mu). Each batch the job runs takes its seconds
// off the remainder, so a pool's load is the simulated seconds its
// jobs ran plus the remainders they still hold. A job that ends or
// leaves its pool reserves 0.
func (s *Server) reserveLocked(j *job, sec float64) {
	if p := s.pools[j.resource]; p != nil {
		p.load += sec - j.unrun
		j.unrun = sec
	}
}

// markTriedLocked records that the job does not fit a pool (caller
// holds s.mu).
func (s *Server) markTriedLocked(j *job, pool string) {
	if j.tried == nil {
		j.tried = map[string]bool{}
	}
	j.tried[pool] = true
}

// execute runs one job popped by nextJob until it ends or goes back to
// the queue. It places the job, waits for the chosen pool's claim and
// runs its batches there. The job survives preemption: when the fleet
// view's generation moves at a batch boundary (or since the job was
// priced), the executor re-plans the remaining batches on the pool's
// current cluster, from the batchesDone checkpoint. Only when the pool
// cannot run the job at all does it fall back to retryElsewhere.
func (s *Server) execute(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	// Trace names and args are built only under a tracer.
	tr := s.tel.tr
	popped := tr.Now()

	s.mu.Lock()
	wait := -1.0 // the queue wait, on the job's first start only
	if j.started.IsZero() {
		j.started = s.clk.Now()
		wait = j.started.Sub(j.submitted).Seconds()
		s.waitS.Add(wait)
		s.tel.queueWaitHist.Observe(wait)
	}
	if j.cancelRequested {
		s.finishLocked(j, StateCanceled, "canceled")
		s.mu.Unlock()
		return
	}
	j.cancel = cancel
	expired := !j.deadline.IsZero() && s.clk.Now().After(j.deadline)
	total := j.batches()
	remaining := total - j.batchesDone
	s.mu.Unlock()
	if expired {
		s.fail(j, fmt.Errorf("deadline exceeded before execution"))
		return
	}

	opts := s.jobOptions(j)
	o, err := s.place(ctx, j, remaining, opts)
	if err != nil {
		if ctx.Err() != nil {
			s.cancelFinished(j)
			return
		}
		s.fail(j, err)
		return
	}
	res := o.res
	if wait >= 0 && tr != nil {
		tr.Span(res.Name, "queue-wait", popped-wait, wait, map[string]any{"job": j.id})
	}
	s.claimPool(o.pool)
	defer s.releasePool(o.pool)

	for attempt := 0; ; attempt++ {
		if s.abandonRequeued(j) {
			return
		}
		replan := attempt > 0 || s.fleet.Generation(res.Name) != o.snap.Generation
		if replan {
			snap, err := s.fleet.Snapshot(res.Name)
			if err == nil && snap.Cluster == nil {
				err = fmt.Errorf("pool %s fully preempted: %w", res.Name, core.ErrInfeasible)
			}
			if err == nil {
				o, err = s.price(ctx, j, res, snap, total-j.batchesDone, opts)
			}
			if err != nil {
				if errors.Is(err, context.Canceled) || ctx.Err() != nil {
					s.cancelFinished(j)
					return
				}
				if s.retryElsewhere(j, res, err) {
					return
				}
				s.fail(j, err)
				return
			}
			s.tel.replans.Inc()
			if tr != nil {
				tr.Instant(res.Name, "replan", tr.Now(), map[string]any{"job": j.id, "attempt": attempt})
			}
		}
		s.mu.Lock()
		if j.requeuedByDrain && !j.cancelRequested {
			s.mu.Unlock()
			return
		}
		if replan {
			s.reserveLocked(j, o.sec)
			j.replans++
		}
		j.state = StateRunning
		j.cacheHit = o.hit // last planning round's cache outcome
		j.planStr = o.plan.String()
		j.planSeconds += o.planSec
		j.batchesTotal = total
		j.throughput = o.sim.Throughput
		start := j.batchesDone // checkpoint: resume, never redo, batches
		s.mu.Unlock()

		// Batches execute sequentially on the pool; each iteration is one
		// simulated batch, so cancellation and preemption both land on a
		// batch boundary ("finish in-flight batches" during drains).
		perBatch := o.sim.TotalSeconds / res.Availability
		batchHist := s.tel.batchHist.With(res.Name)
		preempted := false
		for b := start; b < total; b++ {
			if ctx.Err() != nil {
				s.cancelFinished(j)
				return
			}
			batchBegin := tr.Now()
			s.mu.Lock()
			j.batchesDone = b + 1
			j.simSeconds += perBatch
			j.unrun -= perBatch
			s.mu.Unlock()
			s.tel.simSeconds.Add(perBatch)
			batchHist.Observe(perBatch)
			if tr != nil {
				tr.Span(res.Name, fmt.Sprintf("batch %d/%d", b+1, total), batchBegin, tr.Now()-batchBegin,
					map[string]any{"job": j.id, "sim_seconds": perBatch})
			}
			if s.cfg.BatchHook != nil {
				s.cfg.BatchHook(j.id, b+1, total)
			}
			if b+1 < total && s.fleet.Generation(res.Name) != o.snap.Generation {
				// The pool changed under the job: checkpoint and re-plan
				// the remaining batches against the new topology.
				cur, err := s.fleet.Snapshot(res.Name)
				s.mu.Lock()
				j.state = StatePlanning
				if err == nil && cur.Devices < o.snap.Devices {
					j.preemptions++
				}
				s.mu.Unlock()
				if tr != nil {
					tr.Instant(res.Name, "preempted", tr.Now(), map[string]any{"job": j.id})
				}
				preempted = true
				break
			}
		}
		if !preempted {
			s.mu.Lock()
			s.finishLocked(j, StateCompleted, "")
			s.mu.Unlock()
			return
		}
	}
}

// retryElsewhere requeues a job whose re-plan proved infeasible on this
// pool, so a differently sized pool can take the remaining batches.
// Returns false — leaving the caller to fail the job — for non-capacity
// errors or once every pool has been tried. A job abandoned mid-retry
// because the server is stopping is canceled (shutdown), not failed:
// the pool being too small is not the job's final verdict.
func (s *Server) retryElsewhere(j *job, res *scheduler.Resource, err error) bool {
	if !capacityErr(err) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markTriedLocked(j, res.Name)
	if j.cancelRequested {
		s.finishLocked(j, StateCanceled, "canceled")
		return true
	}
	if len(j.tried) >= len(s.cfg.Resources) {
		return false // genuinely infeasible everywhere
	}
	if s.stopping {
		s.finishLocked(j, StateCanceled, "canceled by shutdown before retry on another pool")
		return true
	}
	s.reserveLocked(j, 0)
	j.state = StateQueued
	j.resource = ""
	j.cancel = nil
	heap.Push(&s.queue, j)
	s.cond.Broadcast()
	return true
}

// fail moves a job to failed.
func (s *Server) fail(j *job, err error) {
	s.mu.Lock()
	s.finishLocked(j, StateFailed, err.Error())
	s.mu.Unlock()
}

// abandonRequeued reports whether the drain timeout requeued this job
// out from under the executor; if so it re-asserts the checkpointed
// queued state (a concurrent generation-change branch may have flipped
// it back to planning) and the executor must drop the job.
func (s *Server) abandonRequeued(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.requeuedByDrain && !j.cancelRequested {
		j.state = StateQueued
		j.resource = ""
		return true
	}
	return false
}

// cancelFinished moves a canceled in-flight job to its terminal state.
// Jobs the drain timeout checkpointed and requeued are exempt: the
// wedged executor unwinding after the deadline must not cancel the
// checkpoint it no longer owns.
func (s *Server) cancelFinished(j *job) {
	s.mu.Lock()
	if j.requeuedByDrain && !j.cancelRequested {
		s.mu.Unlock()
		return
	}
	s.finishLocked(j, StateCanceled, "canceled")
	s.mu.Unlock()
}
