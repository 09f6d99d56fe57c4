package serve

import (
	"context"
	"fmt"

	"repro/internal/maintenance"
	"repro/internal/online"
)

// maintenanceHooks fills the daemon defaults around any caller-supplied
// overrides in Config.Maintenance.
func (s *Server) maintenanceHooks() maintenance.Hooks {
	h := s.cfg.Maintenance
	if h.Utilization == nil {
		h.Utilization = func(pool string) float64 { return s.load().busy[pool] }
	}
	if h.Migrate == nil && s.cfg.Online != nil {
		eng := s.cfg.Online
		h.Migrate = func(_ context.Context, _ maintenance.Target) (int, error) {
			// The continuous batch re-places in-flight requests on the
			// remaining devices at the next token-step boundary (KV
			// rebuilt by token-log replay when pools are disaggregated);
			// each one counts as a migrated session.
			n := 0
			for _, v := range eng.List() {
				if !v.State.Terminal() && v.State != online.StateQueued {
					n++
				}
			}
			return n, nil
		}
	}
	if h.Health == nil {
		h.Health = func(_ context.Context, t maintenance.Target) error {
			v, err := s.fleet.Snapshot(t.Pool)
			if err != nil {
				return err
			}
			total, out := 0, 0
			for _, n := range v.Capacity {
				total += n
			}
			for _, n := range v.Preempted {
				out += n
			}
			if v.Devices != total-out {
				return fmt.Errorf("serve: pool %s availability inconsistent: %d usable, %d capacity, %d drained",
					t.Pool, v.Devices, total, out)
			}
			return nil
		}
	}
	return h
}

// StartMaintenance validates and launches a rolling-maintenance
// operation on the server's fleet. At most one operation runs at a
// time (maintenance.ErrActive otherwise); an infeasible drain is
// refused with maintenance.ErrInfeasible before any device is touched.
func (s *Server) StartMaintenance(req maintenance.Request) (maintenance.Status, error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.maint != nil {
		select {
		case <-s.maint.Done():
		default:
			return s.maint.Status(), maintenance.ErrActive
		}
	}
	o, err := maintenance.New(req, s.fleet, s.maintenanceHooks())
	if err != nil {
		return maintenance.Status{}, err
	}
	o.Instrument(s.tel.reg, s.cfg.Tracer)
	o.Start(s.baseCtx)
	s.maint = o
	return o.Status(), nil
}

// MaintenanceStatus reports the current (or most recent) operation.
func (s *Server) MaintenanceStatus() (maintenance.Status, error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.maint == nil {
		return maintenance.Status{}, maintenance.ErrNone
	}
	return s.maint.Status(), nil
}

// AbortMaintenance cancels the current operation and blocks until its
// in-flight domain has rolled back.
func (s *Server) AbortMaintenance() (maintenance.Status, error) {
	s.maintMu.Lock()
	o := s.maint
	s.maintMu.Unlock()
	if o == nil {
		return maintenance.Status{}, maintenance.ErrNone
	}
	return o.Abort(), nil
}
