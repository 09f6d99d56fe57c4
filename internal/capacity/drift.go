package capacity

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/workload"
)

// DriftReport is one comparison of the analytic queueing model against
// what the engine actually measured: per-pool predicted vs observed
// queue-wait/TTFT percentiles and busy fraction, each with a signed
// relative error ((observed − predicted) / predicted). It turns the
// one-shot fleetsim calibration table into a live signal: a persistent
// verdict of "drift" or "recalibrate" means the planner is sizing
// fleets on a model that no longer matches the workload.
type DriftReport struct {
	Pool         string  `json:"pool"`
	Rate         float64 `json:"rate_rps"`
	Observations int     `json:"observations"`

	PredictedWaitP95 float64 `json:"predicted_wait_p95_seconds"`
	ObservedWaitP95  float64 `json:"observed_wait_p95_seconds"`
	WaitP95Error     float64 `json:"wait_p95_error"`

	PredictedTTFTP95 float64 `json:"predicted_ttft_p95_seconds"`
	ObservedTTFTP95  float64 `json:"observed_ttft_p95_seconds"`
	TTFTP95Error     float64 `json:"ttft_p95_error"`

	PredictedBusyFraction float64 `json:"predicted_busy_fraction"`
	ObservedBusyFraction  float64 `json:"observed_busy_fraction"`
	BusyFractionError     float64 `json:"busy_fraction_error"`

	// MaxAbsError is the largest |relative error| across the three
	// comparisons — the single number the verdict thresholds.
	MaxAbsError float64 `json:"max_abs_error"`
	// Verdict is "ok", "drift", "recalibrate", "saturated" (the analytic
	// model predicts overload, percentiles diverge), or
	// "insufficient-data".
	Verdict string `json:"verdict"`
	// Saturated mirrors the station's saturation flag.
	Saturated bool `json:"saturated,omitempty"`
	// Err records an analytic-solve failure (verdict insufficient-data).
	Err string `json:"error,omitempty"`
}

// Verdict codes for the capacity_drift_verdict gauge.
const (
	VerdictInsufficient = -1.0
	VerdictOK           = 0.0
	VerdictDrift        = 1.0
	VerdictRecalibrate  = 2.0
	VerdictSaturated    = 3.0
)

// minDriftObservations is how many completed requests the detector
// wants before trusting observed percentiles.
const minDriftObservations = 16

// DriftDetector continuously compares the M/G^B/1 prefill station's
// predictions against an online engine's traced observations. It owns
// no goroutine: Observe is called from a metrics scrape (or a fleetsim
// segment boundary) with the engine's current request views and
// metrics, and the analytic solve is cached — it reruns only when the
// observed arrival rate moves by more than 10% or the observed workload
// profile grows substantially, so scrapes stay cheap.
type DriftDetector struct {
	prices    *online.Prices // nil when the config is incomplete
	pricesErr error
	pool      string
	tol       float64 // |error| ≤ tol → "ok"
	recal     float64 // |error| ≤ recal → "drift", beyond → "recalibrate"

	mu       sync.Mutex
	ws       *WorkloadStats
	profileN int
	st       *PrefillStation
	stRate   float64
	last     *DriftReport

	gauges *driftGauges
}

type driftGauges struct {
	predWait, obsWait, errWait *obs.Gauge
	predTTFT, obsTTFT, errTTFT *obs.Gauge
	predBusy, obsBusy, errBusy *obs.Gauge
	maxErr, verdict, observed  *obs.Gauge
}

// NewDriftDetector builds a detector for one engine configuration.
// pool labels the exported gauges and reports (e.g. "online-prefill").
// tol and recal are the verdict thresholds on |relative error|; zero
// picks the defaults 0.25 and 0.5.
func NewDriftDetector(cfg online.Config, pool string, tol, recal float64) *DriftDetector {
	if tol <= 0 {
		tol = 0.25
	}
	if recal <= tol {
		recal = 2 * tol
	}
	// An incomplete config reports its error on each Observe.
	p, err := online.NewPrices(cfg)
	return &DriftDetector{prices: p, pricesErr: err, pool: pool, tol: tol, recal: recal}
}

// LastReport returns the most recent report Observe produced (nil
// before the first Observe). Consumers that act on a verdict — the
// autoscaler's recalibration trigger — compare report identity to act
// on each one at most once.
func (d *DriftDetector) LastReport() *DriftReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Instrument registers the capacity-drift gauge family on reg; every
// subsequent Observe refreshes it.
func (d *DriftDetector) Instrument(reg *obs.Registry) {
	pw := reg.GaugeVec("capacity_drift_predicted_wait_p95_seconds", "Analytic p95 queue wait.", "pool")
	ow := reg.GaugeVec("capacity_drift_observed_wait_p95_seconds", "Measured p95 queue wait.", "pool")
	ew := reg.GaugeVec("capacity_drift_wait_p95_error", "Relative error of the p95 queue-wait prediction.", "pool")
	pt := reg.GaugeVec("capacity_drift_predicted_ttft_p95_seconds", "Analytic p95 TTFT.", "pool")
	ot := reg.GaugeVec("capacity_drift_observed_ttft_p95_seconds", "Measured p95 TTFT.", "pool")
	et := reg.GaugeVec("capacity_drift_ttft_p95_error", "Relative error of the p95 TTFT prediction.", "pool")
	pb := reg.GaugeVec("capacity_drift_predicted_busy_fraction", "Analytic prefill busy fraction.", "pool")
	ob := reg.GaugeVec("capacity_drift_observed_busy_fraction", "Measured prefill busy fraction.", "pool")
	eb := reg.GaugeVec("capacity_drift_busy_fraction_error", "Relative error of the busy-fraction prediction.", "pool")
	me := reg.GaugeVec("capacity_drift_max_abs_error", "Largest |relative error| across the drift comparisons.", "pool")
	vd := reg.GaugeVec("capacity_drift_verdict", "Advisor verdict: -1 insufficient-data, 0 ok, 1 drift, 2 recalibrate, 3 saturated.", "pool")
	nd := reg.GaugeVec("capacity_drift_observations", "Completed requests behind the observed percentiles.", "pool")
	d.mu.Lock()
	d.gauges = &driftGauges{
		predWait: pw.With(d.pool), obsWait: ow.With(d.pool), errWait: ew.With(d.pool),
		predTTFT: pt.With(d.pool), obsTTFT: ot.With(d.pool), errTTFT: et.With(d.pool),
		predBusy: pb.With(d.pool), obsBusy: ob.With(d.pool), errBusy: eb.With(d.pool),
		maxErr: me.With(d.pool), verdict: vd.With(d.pool), observed: nd.With(d.pool),
	}
	d.gauges.verdict.Set(VerdictInsufficient)
	d.mu.Unlock()
}

// Observe compares the analytic model against the engine's current
// measurements. views supplies the observed request shapes (the
// detector distills them into the workload profile the station solves
// against — completed requests contribute their actual token counts,
// in-flight ones their budget); m supplies the measured percentiles.
func (d *DriftDetector) Observe(views []online.RequestView, m online.Metrics) *DriftReport {
	d.mu.Lock()
	defer d.mu.Unlock()

	rep := &DriftReport{Pool: d.pool, Observations: m.TTFT.Count}
	if m.Clock > 0 {
		rep.Rate = float64(m.Submitted-m.Rejected) / m.Clock
	}
	if m.TTFT.Count < minDriftObservations || rep.Rate <= 0 {
		rep.Verdict = "insufficient-data"
		d.publishLocked(rep)
		return rep
	}

	if err := d.refreshLocked(views, rep.Rate); err != nil {
		rep.Verdict = "insufficient-data"
		rep.Err = err.Error()
		d.publishLocked(rep)
		return rep
	}

	st := d.st
	rep.Saturated = st.Saturated
	rep.PredictedWaitP95, rep.ObservedWaitP95 = st.WaitP95, m.QueueWait.P95
	rep.PredictedTTFTP95, rep.ObservedTTFTP95 = st.TTFTP95, m.TTFT.P95
	rep.PredictedBusyFraction, rep.ObservedBusyFraction = st.BusyFraction, m.PrefillBusyFraction
	if st.Saturated {
		// The stationary distribution does not exist: percentile errors
		// are meaningless, so the verdict is the saturation itself.
		rep.Verdict = "saturated"
		d.publishLocked(rep)
		return rep
	}
	rep.WaitP95Error = relErr(rep.ObservedWaitP95, rep.PredictedWaitP95)
	rep.TTFTP95Error = relErr(rep.ObservedTTFTP95, rep.PredictedTTFTP95)
	rep.BusyFractionError = relErr(rep.ObservedBusyFraction, rep.PredictedBusyFraction)
	rep.MaxAbsError = maxAbs(rep.WaitP95Error, rep.TTFTP95Error, rep.BusyFractionError)
	switch {
	case rep.MaxAbsError <= d.tol:
		rep.Verdict = "ok"
	case rep.MaxAbsError <= d.recal:
		rep.Verdict = "drift"
	default:
		rep.Verdict = "recalibrate"
	}
	d.publishLocked(rep)
	return rep
}

// refreshLocked rebuilds the workload stats and re-solves the station
// when the observations have moved enough to matter.
func (d *DriftDetector) refreshLocked(views []online.RequestView, rate float64) error {
	if d.pricesErr != nil {
		return d.pricesErr
	}
	n := 0
	for i := range views {
		if views[i].PromptLen > 0 {
			n++
		}
	}
	if d.ws == nil || n >= d.profileN*3/2 {
		prof := &workload.Profile{}
		for i := range views {
			v := &views[i]
			if v.PromptLen <= 0 {
				continue
			}
			out := v.MaxTokens
			if v.State == online.StateCompleted && v.Tokens > 0 {
				out = v.Tokens
			}
			prof.Requests = append(prof.Requests, workload.Request{PromptLen: v.PromptLen, OutputLen: out})
		}
		ws, err := AnalyzeWorkload(prof, d.prices.Config().ChunkLen)
		if err != nil {
			return err
		}
		d.ws = ws
		d.profileN = n
		d.st = nil // profile moved: force a re-solve
	}
	if d.st == nil || rate > d.stRate*1.1 || rate < d.stRate*0.9 {
		st, err := SolvePrefill(d.prices, d.ws, rate)
		if err != nil {
			return err
		}
		d.st = st
		d.stRate = rate
	}
	return nil
}

// publishLocked records a report as the latest and mirrors it into the
// registered gauges.
func (d *DriftDetector) publishLocked(rep *DriftReport) {
	d.last = rep
	g := d.gauges
	if g == nil {
		return
	}
	g.predWait.Set(rep.PredictedWaitP95)
	g.obsWait.Set(rep.ObservedWaitP95)
	g.errWait.Set(rep.WaitP95Error)
	g.predTTFT.Set(rep.PredictedTTFTP95)
	g.obsTTFT.Set(rep.ObservedTTFTP95)
	g.errTTFT.Set(rep.TTFTP95Error)
	g.predBusy.Set(rep.PredictedBusyFraction)
	g.obsBusy.Set(rep.ObservedBusyFraction)
	g.errBusy.Set(rep.BusyFractionError)
	g.maxErr.Set(rep.MaxAbsError)
	g.observed.Set(float64(rep.Observations))
	switch rep.Verdict {
	case "ok":
		g.verdict.Set(VerdictOK)
	case "drift":
		g.verdict.Set(VerdictDrift)
	case "recalibrate":
		g.verdict.Set(VerdictRecalibrate)
	case "saturated":
		g.verdict.Set(VerdictSaturated)
	default:
		g.verdict.Set(VerdictInsufficient)
	}
}

// relErr is the signed relative error of an observation against a
// prediction; a zero prediction with a nonzero observation saturates at
// the observation's sign.
func relErr(observed, predicted float64) float64 {
	if predicted == 0 {
		if observed == 0 {
			return 0
		}
		if observed > 0 {
			return 1
		}
		return -1
	}
	return (observed - predicted) / predicted
}

func maxAbs(xs ...float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}
