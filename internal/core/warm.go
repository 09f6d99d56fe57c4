package core

import (
	"math"
	"sort"
	"strings"

	"repro/internal/plan"
)

// boundEps is the slack added to pruning thresholds: a configuration is
// pruned only when its optimistic bound exceeds the threshold by more
// than boundEps, so float noise can never prune a configuration that
// ties with a shortlisted one.
const boundEps = 1e-9

// optimisticBound returns an admissible lower bound on the Eq. 4
// objective of *any* assignment under the configuration: every layer
// pays at least its cheapest (device, bitwidth) combined
// prefill+decode+quality cost, and the two max terms are bounded by the
// communication floors and by the harmonic-mean stage floor over each
// device's cheapest per-layer work. A configuration whose bound exceeds the current
// k-th best candidate objective cannot appear in the shortlist of an
// exhaustive search, so pruning on this bound preserves bit-identical
// plans.
func optimisticBound(oc *orderingCosts, ind *Indicator, theta float64) float64 {
	nDev := len(oc.devs)
	L := ind.Layers()
	kappa := float64(oc.batch.Chunks)
	nGen := float64(oc.batch.GenTokens - 1)
	if nGen < 0 {
		nGen = 0
	}
	nb := len(oc.bits)
	minComb := make([]float64, nb) // min_j κ·pre[j][b] + (n-1)·dec[j][b]
	for bi := 0; bi < nb; bi++ {
		minComb[bi] = math.Inf(1)
		for j := 0; j < nDev; j++ {
			p := kappa * oc.pre[j][bi]
			d := oc.dec[j][bi]
			if c := p + nGen*d; c < minComb[bi] {
				minComb[bi] = c
			}
		}
	}
	// Harmonic-mean stage floor: stage j spends at least n_j·p_j on its
	// n_j layers (p_j = device j's cheapest per-layer cost), so the
	// bottleneck satisfies max_j n_j·p_j ≥ L / Σ_j 1/p_j. This dominates
	// the even-spread floor L·min_j p_j / nDev on heterogeneous devices,
	// where slow devices cannot be wished away.
	var invPre, invDec float64
	for j := 0; j < nDev; j++ {
		pj, dj := math.Inf(1), math.Inf(1)
		for bi := 0; bi < nb; bi++ {
			if p := kappa * oc.pre[j][bi]; p < pj {
				pj = p
			}
			if d := oc.dec[j][bi]; d < dj {
				dj = d
			}
		}
		if pj > 0 {
			invPre += 1 / pj
		} else {
			invPre = math.Inf(1)
		}
		if dj > 0 {
			invDec += 1 / dj
		} else {
			invDec = math.Inf(1)
		}
	}
	layerSum := 0.0
	for i := 0; i < L; i++ {
		best := math.Inf(1)
		for bi := 0; bi < nb; bi++ {
			if c := minComb[bi] + theta*ind.Omega[i][bi]; c < best {
				best = c
			}
		}
		layerSum += best
	}
	var preFloor, decFloor float64
	for j := 0; j < nDev; j++ {
		if oc.commPre[j] > preFloor {
			preFloor = oc.commPre[j]
		}
		if oc.commDec[j] > decFloor {
			decFloor = oc.commDec[j]
		}
	}
	if invPre > 0 && !math.IsInf(invPre, 1) {
		if spread := float64(L) / invPre; spread > preFloor {
			preFloor = spread
		}
	}
	if invDec > 0 && !math.IsInf(invDec, 1) {
		if spread := float64(L) / invDec; spread > decFloor {
			decFloor = spread
		}
	}
	lb := oc.masterConst + layerSum + oc.aPre*preFloor + oc.aDec*decFloor
	// Shave a relative margin so accumulated rounding in the bound can
	// never overstate the true objective.
	return lb * (1 - 1e-9)
}

// incumbentSeed is a previous plan adapted onto the current candidate
// space: a configuration index plus an assignment under that
// configuration's ordering.
type incumbentSeed struct {
	cfg int
	as  *assignment
	ev  evaluation
}

// adaptIncumbent maps a previous plan onto the enumerated configuration
// space in two tiers. Tier 1 keeps the plan verbatim: stages whose
// device ID no longer exists (preempted devices) donate their layers to
// the nearest surviving predecessor stage, and the surviving device
// sequence is matched against the enumeration — first with the plan's
// own (η, ξ) pair, then against any configuration with the same
// ordering. Tier 2 handles topologies where the exact devices are gone
// but their nodes remain (a shrink that dissolved a TP group, or a TP
// regrouping): the plan is compressed to per-node layer runs and
// re-split evenly across each node's current devices. Returns nil when
// the plan cannot be expressed in the current space at all (unknown
// nodes throughout, bit set changed, layer count mismatch).
func adaptIncumbent(p *plan.Plan, configs []planConfig, ind *Indicator, bits []int) *incumbentSeed {
	if p == nil || len(p.Stages) == 0 {
		return nil
	}
	for _, st := range p.Stages {
		if len(st.Bits) == 0 {
			return nil
		}
	}
	if lay := p.Layers(); lay != ind.Layers() {
		return nil
	}
	if seed := adaptExact(p, configs, ind, bits); seed != nil {
		return seed
	}
	return adaptByNode(p, configs, ind, bits)
}

// mergedSegments collapses a previous plan into contiguous (key, bits)
// segments, where keyOf extracts the matching granularity (device ID or
// node) and keep reports whether the key still exists. Dropped segments
// donate their layers to the nearest surviving predecessor (or to the
// first survivor, for a dropped prefix). Adjacent segments with equal
// keys merge. Returns nil when nothing survives.
type planSegment struct {
	key  string
	bits []int
}

func mergedSegments(p *plan.Plan, keyOf func(*plan.Stage) string, keep func(string) bool) []planSegment {
	var segs []planSegment
	for i := range p.Stages {
		st := &p.Stages[i]
		k := keyOf(st)
		if !keep(k) {
			k = ""
		}
		if len(segs) > 0 && (k == "" || segs[len(segs)-1].key == k) {
			segs[len(segs)-1].bits = append(segs[len(segs)-1].bits, st.Bits...)
			continue
		}
		segs = append(segs, planSegment{key: k, bits: append([]int(nil), st.Bits...)})
	}
	if len(segs) > 0 && segs[0].key == "" {
		if len(segs) == 1 {
			return nil // no surviving key at all
		}
		segs[1].bits = append(append([]int(nil), segs[0].bits...), segs[1].bits...)
		segs = segs[1:]
	}
	return segs
}

// pickConfig returns the canonically-first configuration accepted by
// match, preferring one that also keeps the plan's (η, ξ) pair.
func pickConfig(p *plan.Plan, configs []planConfig, match func(*planConfig) bool) int {
	best := -1
	for i := range configs {
		if !match(&configs[i]) {
			continue
		}
		if configs[i].eta == p.PrefillMicroBatch && configs[i].xi == p.DecodeMicroBatch {
			return i
		}
		if best < 0 {
			best = i
		}
	}
	return best
}

// seedFromSegments converts per-stage bit segments (one per config
// device, in order) into an assignment.
func seedFromSegments(cfg int, segs []planSegment, ind *Indicator, bits []int) *incumbentSeed {
	as := &assignment{}
	for j := range segs {
		for _, b := range segs[j].bits {
			bi := ind.bitIndex(b)
			if bi < 0 || bi >= len(bits) {
				return nil
			}
			as.stageOf = append(as.stageOf, j)
			as.bitIdx = append(as.bitIdx, bi)
		}
	}
	return &incumbentSeed{cfg: cfg, as: as}
}

// adaptExact is tier 1: match the surviving device-ID sequence exactly.
func adaptExact(p *plan.Plan, configs []planConfig, ind *Indicator, bits []int) *incumbentSeed {
	known := map[string]bool{}
	for i := range configs {
		for _, d := range configs[i].devs {
			known[d.ID] = true
		}
	}
	segs := mergedSegments(p,
		func(st *plan.Stage) string { return st.Device.ID },
		func(id string) bool { return known[id] })
	if segs == nil {
		return nil
	}
	best := pickConfig(p, configs, func(cfg *planConfig) bool {
		if len(cfg.devs) != len(segs) {
			return false
		}
		for i := range segs {
			if cfg.devs[i].ID != segs[i].key {
				return false
			}
		}
		return true
	})
	if best < 0 {
		return nil
	}
	return seedFromSegments(best, segs, ind, bits)
}

// stageNode returns the hosting node of a stage's device, falling back
// to the ID prefix for deserialized plans that predate the Node field.
func stageNode(st *plan.Stage) string {
	if st.Device.Node != "" {
		return st.Device.Node
	}
	if i := strings.IndexByte(st.Device.ID, '/'); i > 0 {
		return st.Device.ID[:i]
	}
	return st.Device.ID
}

// adaptByNode is tier 2: match per-node layer runs and re-split each run
// evenly (contiguously) across the node's devices in the configuration.
func adaptByNode(p *plan.Plan, configs []planConfig, ind *Indicator, bits []int) *incumbentSeed {
	nodes := map[string]bool{}
	for i := range configs {
		for _, d := range configs[i].devs {
			nodes[d.Node] = true
		}
	}
	runs := mergedSegments(p, stageNode, func(n string) bool { return nodes[n] })
	if runs == nil {
		return nil
	}
	// A config matches when its devices group into the same node
	// sequence and every run has at least one layer per device.
	type nodeRun struct {
		node string
		devs int
	}
	runsOf := func(cfg *planConfig) []nodeRun {
		var out []nodeRun
		for _, d := range cfg.devs {
			if len(out) > 0 && out[len(out)-1].node == d.Node {
				out[len(out)-1].devs++
				continue
			}
			out = append(out, nodeRun{node: d.Node, devs: 1})
		}
		return out
	}
	match := func(cfg *planConfig) bool {
		nr := runsOf(cfg)
		if len(nr) != len(runs) {
			return false
		}
		for i := range runs {
			if nr[i].node != runs[i].key || nr[i].devs > len(runs[i].bits) {
				return false
			}
		}
		return true
	}
	best := pickConfig(p, configs, match)
	if best < 0 {
		return nil
	}
	// Split each run's layers into contiguous chunks, one per device;
	// the first (len % devs) devices take the extra layer.
	var segs []planSegment
	for i, nr := range runsOf(&configs[best]) {
		layers := runs[i].bits
		base, extra := len(layers)/nr.devs, len(layers)%nr.devs
		off := 0
		for d := 0; d < nr.devs; d++ {
			take := base
			if d < extra {
				take++
			}
			segs = append(segs, planSegment{bits: layers[off : off+take]})
			off += take
		}
	}
	return seedFromSegments(best, segs, ind, bits)
}

// warmDistance scores how far a configuration sits from the incumbent's
// topology: one point per mismatched pipeline position, plus one each
// for a differing prefill or decode micro-batch. Candidates are
// evaluated in ascending distance so a cancelled warm search has
// explored the incumbent's neighborhood first.
func warmDistance(cfg *planConfig, inc *planConfig) int {
	d := 0
	n := len(cfg.devs)
	if m := len(inc.devs); m < n {
		d += n - m
		n = m
	} else {
		d += m - n
	}
	for i := 0; i < n; i++ {
		if cfg.devs[i].ID != inc.devs[i].ID {
			d++
		}
	}
	if cfg.eta != inc.eta {
		d++
	}
	if cfg.xi != inc.xi {
		d++
	}
	return d
}

// warmOrder returns the configuration indices of pending sorted by
// (distance from the incumbent configuration, canonical index).
func warmOrder(pending []int, configs []planConfig, incCfg int) []int {
	inc := &configs[incCfg]
	out := append([]int(nil), pending...)
	sort.SliceStable(out, func(a, b int) bool {
		da, db := warmDistance(&configs[out[a]], inc), warmDistance(&configs[out[b]], inc)
		if da != db {
			return da < db
		}
		return out[a] < out[b]
	})
	return out
}

// kthBestObjective returns the K-th smallest objective among the
// feasible evaluated candidates, or +Inf when fewer than K exist (no
// pruning threshold can then be trusted and every configuration must be
// evaluated).
func kthBestObjective(objs []float64, k int) float64 {
	if len(objs) < k {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), objs...)
	sort.Float64s(sorted)
	return sorted[k-1]
}
