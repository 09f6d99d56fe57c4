package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/gpu"
	"repro/internal/maintenance"
	"repro/internal/online"
	"repro/internal/scheduler"
)

// maintenanceLoop is the -maintenance closed loop: size the cheapest
// fleet for the diurnal peak, replay the seeded day once untouched as
// the reference, then roll *every* device of the pool through the
// rolling-maintenance orchestrator — one single-device failure domain
// at a time, each mapped to a day segment whose surviving devices
// absorb the drained device's share of the load — and replay the same
// day under that schedule. The run is self-checking: an infeasible
// drain must be refused before any device is preempted, the roll must
// end with the pool fully re-admitted, the maintenance day must lose
// zero requests, and its queue-wait p95 must stay within a bounded
// inflation of the reference day.
func maintenanceLoop(ctx context.Context, peak float64) error {
	rec, profile, err := planDay(ctx, peak)
	if err != nil {
		return err
	}
	nDevices := rec.Cluster.TotalDevices()
	fmt.Printf("recommended fleet: %s at %.2f/h (%d devices to roll)\n", rec.Fleet, rec.CostPerHour, nDevices)

	// Reference day: the untouched fleet.
	refEng, err := online.New(rec.Config)
	if err != nil {
		return err
	}
	refSpecs := diurnalDay(profile, peak, nil)
	refM := refEng.Replay(refSpecs, 0)
	fmt.Printf("reference day: %d arrivals, %d completed, %d rejected, wait p95 %.3fs\n",
		len(refSpecs), refM.Completed, refM.Rejected, refM.QueueWait.P95)
	if refM.Rejected > 0 || refM.Completed != int64(len(refSpecs)) {
		return fmt.Errorf("reference day already loses requests (%d rejected, %d/%d completed) — raise the fleet or lower -cap-peak",
			refM.Rejected, refM.Completed, len(refSpecs))
	}

	// The pool under maintenance, and the roll plan: one single-device
	// failure domain per device, class by class.
	fs := scheduler.NewFleetState([]scheduler.Resource{
		{Name: "serving", Cluster: rec.Cluster, Availability: 1},
	})
	classes := make([]gpu.DeviceClass, 0, len(rec.Fleet))
	for c := range rec.Fleet {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var targets []maintenance.Target
	for _, c := range classes {
		for i := 0; i < rec.Fleet[c]; i++ {
			targets = append(targets, maintenance.Target{
				Pool: "serving", Class: string(c), Count: 1,
				Domain: fmt.Sprintf("%s-%d", c, i),
			})
		}
	}

	// Infeasible drain first: under saturating observed load the gate
	// must refuse before a single device is preempted.
	_, err = maintenance.New(maintenance.Request{
		Targets: targets[:1],
	}, fs, maintenance.Hooks{Utilization: func(string) float64 { return 0.97 }})
	if !errors.Is(err, maintenance.ErrInfeasible) {
		return fmt.Errorf("saturated drain: got %v, want ErrInfeasible", err)
	}
	if fs.Preemptions() != 0 {
		return fmt.Errorf("infeasible drain touched the fleet")
	}
	fmt.Printf("saturated drain refused before touching the fleet: %v\n\n", err)

	// The real roll. Each domain maps to one day segment (wrapping past
	// 24); the migrate hook counts the sessions that arrive while that
	// domain's device is out — the sessions the survivors absorb.
	domainSeg := map[string]int{}
	inflate := map[int]float64{}
	for i, t := range targets {
		seg := i % capSegments
		domainSeg[t.Domain] = seg
		f := 1.0
		if ex, ok := inflate[seg]; ok {
			f = ex
		}
		inflate[seg] = f * float64(nDevices) / float64(nDevices-1)
	}
	maintSpecs := diurnalDay(profile, peak, inflate)
	arrivals := make([]int, capSegments)
	for _, s := range maintSpecs {
		arrivals[int(s.ArrivalSeconds/capSegSeconds)]++
	}
	rolled := 0
	hooks := maintenance.Hooks{
		Utilization: func(string) float64 { return refM.PrefillBusyFraction },
		Migrate: func(_ context.Context, t maintenance.Target) (int, error) {
			return arrivals[domainSeg[t.Domain]], nil
		},
		Restart: func(_ context.Context, t maintenance.Target) error {
			rolled++
			return nil
		},
		Health: func(_ context.Context, t maintenance.Target) error {
			v, err := fs.Snapshot(t.Pool)
			if err != nil {
				return err
			}
			if v.Devices != nDevices-t.Count {
				return fmt.Errorf("pool %s: %d usable mid-roll, want %d", t.Pool, v.Devices, nDevices-t.Count)
			}
			return nil
		},
	}
	o, err := maintenance.New(maintenance.Request{Targets: targets}, fs, hooks)
	if err != nil {
		return err
	}
	if err := o.Run(ctx); err != nil {
		return fmt.Errorf("rolling maintenance failed: %w (status %+v)", err, o.Status())
	}
	st := o.Status()
	view, _ := fs.Snapshot("serving")
	fmt.Printf("rolled %d/%d devices in %d domains: state %s, %d rollbacks, %d sessions migrated\n",
		rolled, nDevices, len(st.Domains), st.State, st.Rollback, st.Migrated)
	if st.State != maintenance.StateDone || st.Rollback != 0 {
		return fmt.Errorf("roll ended %s with %d rollbacks", st.State, st.Rollback)
	}
	if view.Devices != nDevices || len(view.Preempted) != 0 {
		return fmt.Errorf("pool not fully re-admitted after the roll: %+v", view)
	}
	if fs.Preemptions() != uint64(len(targets)) || fs.Restores() != uint64(len(targets)) {
		return fmt.Errorf("drain/restore imbalance: %d preemptions, %d restores, want %d each",
			fs.Preemptions(), fs.Restores(), len(targets))
	}

	// The maintenance day: the same seeded day with each rolled segment's
	// load concentrated on the surviving devices.
	maintEng, err := online.New(rec.Config)
	if err != nil {
		return err
	}
	maintM := maintEng.Replay(maintSpecs, 0)
	fmt.Printf("maintenance day: %d arrivals, %d completed, %d rejected, wait p95 %.3fs\n",
		len(maintSpecs), maintM.Completed, maintM.Rejected, maintM.QueueWait.P95)

	if maintM.Rejected > 0 || maintM.Completed != int64(len(maintSpecs)) {
		return fmt.Errorf("maintenance day lost requests: %d rejected, %d/%d completed",
			maintM.Rejected, maintM.Completed, len(maintSpecs))
	}
	bound := 3 * math.Max(refM.QueueWait.P95, 0.05)
	fmt.Printf("queue-wait p95 inflation: %.3fs → %.3fs (bound %.3fs)\n",
		refM.QueueWait.P95, maintM.QueueWait.P95, bound)
	if maintM.QueueWait.P95 > bound {
		return fmt.Errorf("maintenance day p95 %.3fs exceeds the %.3fs inflation bound", maintM.QueueWait.P95, bound)
	}
	fmt.Println("zero-downtime roll proved: every device rolled, zero requests lost, p95 inflation bounded")
	return nil
}
