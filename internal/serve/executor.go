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

// worker drains the queue. Workers are not pinned to pools: each
// iteration claims any idle pool with a runnable job (preferring the
// pool at the worker's own offset for spread), so every pool is served
// even when Config.Workers is below the pool count. At most one job runs
// per pool at a time.
func (s *Server) worker(idx int) {
	defer s.workers.Done()
	for {
		j, res := s.nextJob(idx)
		if j == nil {
			return
		}
		s.execute(j, res)
		s.releasePool(res)
	}
}

// nextJob blocks until some queued job has an idle pool that has not
// already proven infeasible for it, claims the pool (marking it busy),
// and returns the pairing with the job in planning state — or (nil, nil)
// once the server stops. Jobs whose untried pools are all busy stay
// queued; releasePool re-wakes the workers when a pool frees up.
func (s *Server) nextJob(start int) (*job, *scheduler.Resource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var picked *job
		var pool *scheduler.Resource
		var skipped []*job
		for s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*job)
			if j.state != StateQueued {
				continue // canceled while queued
			}
			if r := s.idlePoolFor(j, start); r != nil {
				picked, pool = j, r
				break
			}
			skipped = append(skipped, j)
		}
		for _, j := range skipped {
			heap.Push(&s.queue, j)
		}
		if picked != nil {
			now := s.clk.Now()
			s.pools[pool.Name].claimedAt = now
			picked.state = StatePlanning
			if picked.started.IsZero() {
				picked.started = now
				wait := picked.started.Sub(picked.submitted).Seconds()
				s.waitS.Add(wait)
				s.tel.queueWaitHist.Observe(wait)
				if tr := s.tel.tr; tr != nil {
					tr.Span(pool.Name, "queue-wait", tr.Now()-wait, wait, map[string]any{"job": picked.id})
				}
			}
			return picked, pool
		}
		if s.stopping {
			return nil, nil
		}
		s.cond.Wait()
	}
}

// idlePoolFor returns an idle pool the job has not yet been tried on,
// scanning from the start offset (caller holds s.mu).
func (s *Server) idlePoolFor(j *job, start int) *scheduler.Resource {
	n := len(s.cfg.Resources)
	for k := 0; k < n; k++ {
		r := &s.cfg.Resources[(start+k)%n]
		if !s.pools[r.Name].claimed() && !j.tried[r.Name] {
			return r
		}
	}
	return nil
}

// releasePool frees a pool claimed by nextJob and re-wakes the workers:
// a job may have been waiting for exactly this pool.
func (s *Server) releasePool(res *scheduler.Resource) {
	s.mu.Lock()
	p := s.pools[res.Name]
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

// execute plans (via the cache) and runs one job on one resource,
// surviving preemption: batches run against the pool's *current*
// availability snapshot, and when the fleet view's generation moves at a
// batch boundary the executor checkpoints batchesDone and re-plans the
// remaining batches on the degraded (or restored) cluster. Only when the
// shrunken pool cannot run the job at all does it fall back to
// retryElsewhere.
func (s *Server) execute(j *job, res *scheduler.Resource) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	s.mu.Lock()
	if j.cancelRequested {
		s.finishLocked(j, StateCanceled, "canceled")
		s.mu.Unlock()
		return
	}
	j.cancel = cancel
	j.resource = res.Name
	expired := !j.deadline.IsZero() && s.clk.Now().After(j.deadline)
	s.mu.Unlock()
	if expired {
		s.fail(j, fmt.Errorf("deadline exceeded before execution"))
		return
	}

	opts := s.jobOptions(j)
	total := j.batches()
	// Trace names and args are built only under a tracer.
	tr := s.tel.tr

	// last is the plan of the previous attempt on this pool; after a
	// preemption or restore it warm-starts the replan on the changed
	// topology instead of searching cold.
	var last *plan.Plan
	for attempt := 0; ; attempt++ {
		if s.abandonRequeued(j) {
			return
		}
		snap, err := s.fleet.Snapshot(res.Name)
		if err != nil {
			s.fail(j, err)
			return
		}
		if snap.Cluster == nil {
			err := fmt.Errorf("pool %s fully preempted: %w", res.Name, core.ErrInfeasible)
			if s.retryElsewhere(j, res, err) {
				return
			}
			s.fail(j, err)
			return
		}

		// The cache keys on the *current* cluster: a degraded pool plans
		// under its own fingerprint, and a pool restored to a composition
		// it already planned is answered from the cache.
		planBegin := tr.Now()
		p, rep, hit, err := s.cache.Plan(ctx, j.mspec, snap.Cluster, j.batch, opts, last)
		if err == nil && tr != nil {
			cacheState := "cold"
			if hit {
				cacheState = "hit"
			} else if last != nil {
				cacheState = "warm"
			}
			tr.Span(res.Name, "plan", planBegin, tr.Now()-planBegin,
				map[string]any{"job": j.id, "cache": cacheState})
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
		last = p

		sim, err := pipeline.Simulate(p, j.mspec, snap.Cluster, j.batch)
		if err != nil {
			if s.retryElsewhere(j, res, err) {
				return
			}
			s.fail(j, err)
			return
		}

		var planSec float64
		if !hit {
			planSec = rep.SolveSeconds
			s.tel.planHist.Observe(planSec)
		}
		s.tel.planSeconds.Add(planSec)
		if attempt > 0 {
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
		j.state = StateRunning
		j.cacheHit = hit // last planning round's cache outcome
		j.planStr = p.String()
		j.planSeconds += planSec
		j.batchesTotal = total
		j.throughput = sim.Throughput
		if attempt > 0 {
			j.replans++
		}
		start := j.batchesDone // checkpoint: resume, never redo, batches
		s.mu.Unlock()

		// Batches execute sequentially on the pool; each iteration is one
		// simulated batch, so cancellation and preemption both land on a
		// batch boundary ("finish in-flight batches" during drains).
		perBatch := sim.TotalSeconds / res.Availability
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
			if b+1 < total && s.fleet.Generation(res.Name) != snap.Generation {
				// The pool changed under the job: checkpoint and re-plan
				// the remaining batches against the new topology.
				cur, err := s.fleet.Snapshot(res.Name)
				s.mu.Lock()
				j.state = StatePlanning
				if err == nil && cur.Devices < snap.Devices {
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

// retryElsewhere requeues a job whose planning or simulation proved
// infeasible on this pool, so a differently sized pool can try it;
// admission only guarantees the job fits *some* pool. Returns false —
// leaving the caller to fail the job — for non-capacity errors or once
// every pool has been tried. A job abandoned mid-retry because the
// server is stopping is canceled (shutdown), not failed: the pool being
// too small is not the job's final verdict.
func (s *Server) retryElsewhere(j *job, res *scheduler.Resource, err error) bool {
	if !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, pipeline.ErrOOM) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.tried == nil {
		j.tried = map[string]bool{}
	}
	j.tried[res.Name] = true
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
