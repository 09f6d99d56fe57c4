package scheduler

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/cluster"
	"repro/internal/gpu"
)

// View is one pool's dynamic availability snapshot. Executors poll it at
// batch boundaries: a Generation change means the usable topology moved
// under the running job and the remaining batches should be re-planned
// against the new Cluster.
type View struct {
	// Resource names the pool.
	Resource string
	// Cluster is the currently usable topology (nil when every device
	// has been reclaimed).
	Cluster *cluster.Cluster
	// Generation increments on every preemption or restore.
	Generation uint64
	// Devices is the usable device count; TotalDevices the intact count.
	Devices      int
	TotalDevices int
	// Capacity is the pool's intact per-class device count; Preempted the
	// currently reclaimed subset.
	Capacity  map[gpu.DeviceClass]int
	Preempted map[gpu.DeviceClass]int
}

// Degraded reports whether any device is currently reclaimed.
func (v View) Degraded() bool { return v.Devices < v.TotalDevices }

// poolState is the mutable record behind one resource (guarded by the
// FleetState mutex).
type poolState struct {
	base    *cluster.Cluster
	cur     *cluster.Cluster // nil when fully reclaimed
	out     map[gpu.DeviceClass]int
	cap     map[gpu.DeviceClass]int
	gen     uint64
	total   int
	devices int
}

// FleetState is the dynamic availability view over a set of resources:
// it tracks which devices the online tier has reclaimed from each pool
// and exposes the degraded cluster a job must run on right now. Safe for
// concurrent use; fault injectors call Preempt/Restore while executors
// poll Snapshot/Generation.
type FleetState struct {
	mu          sync.Mutex
	pools       map[string]*poolState
	order       []string
	preemptions uint64
	restores    uint64
}

// NewFleetState builds the availability view with every pool intact.
func NewFleetState(resources []Resource) *FleetState {
	f := &FleetState{pools: map[string]*poolState{}}
	for i := range resources {
		r := &resources[i]
		caps := map[gpu.DeviceClass]int{}
		for _, n := range r.Cluster.Nodes {
			caps[n.Class] += n.Count
		}
		f.pools[r.Name] = &poolState{
			base:    r.Cluster,
			cur:     r.Cluster,
			out:     map[gpu.DeviceClass]int{},
			cap:     caps,
			total:   r.Cluster.TotalDevices(),
			devices: r.Cluster.TotalDevices(),
		}
		f.order = append(f.order, r.Name)
	}
	return f
}

// rebuild recomputes the degraded cluster from the outage counts (caller
// holds the mutex).
func (p *poolState) rebuild() error {
	live := p.total
	for _, n := range p.out {
		live -= n
	}
	p.devices = live
	if live == 0 {
		p.cur = nil
		return nil
	}
	cur := p.base
	for class, n := range p.out {
		if n == 0 {
			continue
		}
		next, err := cur.Shrink(class, n)
		if err != nil {
			return err
		}
		cur = next
	}
	p.cur = cur
	return nil
}

// view renders the pool snapshot (caller holds the mutex).
func (f *FleetState) view(name string, p *poolState) View {
	out := make(map[gpu.DeviceClass]int, len(p.out))
	for class, n := range p.out {
		if n > 0 {
			out[class] = n
		}
	}
	caps := make(map[gpu.DeviceClass]int, len(p.cap))
	for class, n := range p.cap {
		caps[class] = n
	}
	return View{
		Resource:     name,
		Cluster:      p.cur,
		Generation:   p.gen,
		Devices:      p.devices,
		TotalDevices: p.total,
		Capacity:     caps,
		Preempted:    out,
	}
}

// change runs one device-count change on a pool under the lock: it
// checks the pool and count, lets apply check and edit the pool,
// rebuilds the usable cluster and bumps the generation (and *events,
// when non-nil). A failed apply or rebuild leaves the pool as it was.
// verb names the change in the count error.
func (f *FleetState) change(pool, verb string, count int, events *uint64, apply func(p *poolState) error) (View, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.pools[pool]
	if !ok {
		return View{}, fmt.Errorf("scheduler: unknown pool %q", pool)
	}
	if count <= 0 {
		return View{}, fmt.Errorf("scheduler: %s %d devices", verb, count)
	}
	saved := *p
	saved.out, saved.cap = maps.Clone(p.out), maps.Clone(p.cap)
	err := apply(p)
	if err == nil {
		err = p.rebuild()
	}
	if err != nil {
		*p = saved
		return View{}, err
	}
	p.gen++
	if events != nil {
		*events++
	}
	return f.view(pool, p), nil
}

// Preempt reclaims count devices of class from the pool, as the online
// tier does when its demand spikes. It errors when the pool is unknown
// or holds fewer un-reclaimed devices of the class than count.
func (f *FleetState) Preempt(pool string, class gpu.DeviceClass, count int) (View, error) {
	return f.change(pool, "preempt", count, &f.preemptions, func(p *poolState) error {
		if avail := p.cap[class] - p.out[class]; count > avail {
			return fmt.Errorf("scheduler: pool %s has %d un-reclaimed %s devices, cannot preempt %d", pool, avail, class, count)
		}
		p.out[class] += count
		return nil
	})
}

// Restore returns count previously reclaimed devices of class to the
// pool.
func (f *FleetState) Restore(pool string, class gpu.DeviceClass, count int) (View, error) {
	return f.change(pool, "restore", count, &f.restores, func(p *poolState) error {
		if count > p.out[class] {
			return fmt.Errorf("scheduler: pool %s has %d reclaimed %s devices, cannot restore %d", pool, p.out[class], class, count)
		}
		p.out[class] -= count
		return nil
	})
}

// Expand provisions count extra devices of class into the pool — the
// autoscaler's scale-up action. Unlike Restore (which returns reclaimed
// devices), Expand grows the pool's intact capacity, so a later Reset
// keeps the new devices. The grown devices are usable immediately; any
// provisioning delay is the caller's to model before invoking Expand.
func (f *FleetState) Expand(pool string, class gpu.DeviceClass, count int) (View, error) {
	return f.change(pool, "expand by", count, nil, func(p *poolState) error {
		base, err := p.base.Grow(class, count)
		if err != nil {
			return err
		}
		p.base = base
		p.cap[class] += count
		p.total += count
		return nil
	})
}

// Contract decommissions count un-reclaimed devices of class from the
// pool's intact capacity — the autoscaler's scale-down action. Devices
// currently reclaimed by Preempt cannot be contracted away (they are
// owed back to the pool by a Restore); the pool must also keep at least
// one device.
func (f *FleetState) Contract(pool string, class gpu.DeviceClass, count int) (View, error) {
	return f.change(pool, "contract by", count, nil, func(p *poolState) error {
		if avail := p.cap[class] - p.out[class]; count > avail {
			return fmt.Errorf("scheduler: pool %s has %d un-reclaimed %s devices, cannot contract %d", pool, avail, class, count)
		}
		base, err := p.base.Shrink(class, count)
		if err != nil {
			return err
		}
		p.base = base
		p.cap[class] -= count
		if p.cap[class] == 0 {
			delete(p.cap, class)
		}
		p.total -= count
		return nil
	})
}

// Reset returns every reclaimed device on every pool (one generation
// bump per pool that was degraded).
func (f *FleetState) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.order {
		p := f.pools[name]
		degraded := false
		for class, n := range p.out {
			if n > 0 {
				degraded = true
			}
			delete(p.out, class)
		}
		if degraded {
			p.cur = p.base
			p.devices = p.total
			p.gen++
		}
	}
}

// Snapshot returns the pool's current availability view.
func (f *FleetState) Snapshot(pool string) (View, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.pools[pool]
	if !ok {
		return View{}, fmt.Errorf("scheduler: unknown pool %q", pool)
	}
	return f.view(pool, p), nil
}

// Generation is the cheap poll executors issue at batch boundaries; it
// returns 0 for unknown pools.
func (f *FleetState) Generation(pool string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.pools[pool]; ok {
		return p.gen
	}
	return 0
}

// Views returns every pool's snapshot in registration order.
func (f *FleetState) Views() []View {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]View, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, f.view(name, f.pools[name]))
	}
	return out
}

// Preemptions is the lifetime count of Preempt events applied.
func (f *FleetState) Preemptions() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.preemptions
}

// Restores is the lifetime count of Restore events applied.
func (f *FleetState) Restores() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.restores
}
