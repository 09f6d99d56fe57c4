package serve

import "repro/internal/obs"

// telemetry is the server's registry-backed counter set. The counters
// ARE the source of truth: /v1/metrics reads them back, and the
// Prometheus endpoint exposes the same series, so the two views can
// never disagree. Hot-path handles are resolved once here — executors
// touch single atomics, never the registry maps.
type telemetry struct {
	reg *obs.Registry
	tr  *obs.Tracer

	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter

	planSeconds *obs.Counter
	simSeconds  *obs.Counter
	replans     *obs.Counter

	planHist      *obs.Histogram
	batchHist     *obs.HistogramVec
	queueWaitHist *obs.Histogram
	execHist      *obs.Histogram
}

// instrument registers the serve daemon's families on reg and wires the
// sampled gauges.
func (s *Server) instrument(reg *obs.Registry) {
	t := &telemetry{
		reg:       reg,
		tr:        s.cfg.Tracer,
		submitted: reg.Counter("serve_jobs_submitted_total", "Jobs accepted at admission."),
		rejected:  reg.Counter("serve_jobs_rejected_total", "Submissions rejected (validation, admission, drain, queue pressure)."),

		planSeconds: reg.Counter("serve_plan_seconds_total", "Planner wall-clock seconds across jobs and replans."),
		simSeconds:  reg.Counter("serve_sim_seconds_total", "Simulated execution seconds across batches."),
		replans:     reg.Counter("serve_replans_total", "Mid-job re-plans after a pool changed under a running job."),

		planHist:      reg.Histogram("serve_plan_seconds", "Planner latency per cache-miss solve.", obs.DefBuckets),
		queueWaitHist: reg.Histogram("serve_job_queue_wait_seconds", "Job wait from submission to execution start.", obs.DefBuckets),
		execHist:      reg.Histogram("serve_job_exec_seconds", "Job latency from execution start to completion.", obs.DefBuckets),
		batchHist:     reg.HistogramVec("serve_batch_sim_seconds", "Simulated seconds per executor batch.", obs.DefBuckets, "pool"),
	}
	finished := reg.CounterVec("serve_jobs_finished_total", "Jobs by terminal state.", "state")
	t.completed = finished.With("completed")
	t.failed = finished.With("failed")
	t.canceled = finished.With("canceled")
	s.tel = t

	reg.CounterFunc("serve_cache_hits_total", "Plan-cache hits.", func() float64 {
		h, _ := s.cache.Stats()
		return float64(h)
	})
	reg.CounterFunc("serve_cache_misses_total", "Plan-cache misses.", func() float64 {
		_, m := s.cache.Stats()
		return float64(m)
	})
	reg.GaugeFunc("serve_cache_entries", "Plans held by the LRU cache.", func() float64 {
		return float64(s.cache.Len())
	})

	queueDepth := reg.Gauge("serve_queue_depth", "Jobs queued and not yet started.")
	running := reg.Gauge("serve_jobs_running", "Jobs in planning or running state.")
	draining := reg.Gauge("serve_draining", "1 while the server refuses new submissions.")
	busyRatio := reg.GaugeVec("serve_pool_busy_ratio", "Executor busy fraction of wall-clock since start, per pool.", "pool")
	reg.OnGather(func() {
		l := s.load()
		queueDepth.Set(float64(l.queued))
		running.Set(float64(l.running))
		if l.draining {
			draining.Set(1)
		} else {
			draining.Set(0)
		}
		if l.busy != nil {
			for i := range s.cfg.Resources {
				name := s.cfg.Resources[i].Name
				busyRatio.With(name).Set(l.busy[name])
			}
		}
	})
}
