// Package cluster describes heterogeneous GPU cluster topologies: nodes
// holding devices of one class, intra-node interconnect (NVLink), and
// inter-node Ethernet. It ships the ten cluster presets of the paper's
// Table III and enumerates the device orderings and tensor-parallel
// meshes the optimizer searches over (§IV-C).
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpu"
	"repro/internal/model"
)

// Interconnect bandwidths (bytes/second, effective).
const (
	// NVLinkBW is the effective intra-node NVLink bandwidth.
	NVLinkBW = 150e9
	// Eth100BW and Eth800BW are effective bandwidths of the paper's
	// 100 Gbps and 800 Gbps inter-node Ethernet fabrics.
	Eth100BW = 100e9 / 8 * 0.8
	Eth800BW = 800e9 / 8 * 0.8

	// effBytesPerGbps is the single conversion factor between a nominal
	// fabric speed in Gbps and the effective bandwidth in bytes/second
	// (wire bits → bytes at 80% efficiency). Both conversion directions
	// use this one constant (an exact power of ten, 1e8), so a
	// Gbps → bytes/s → Gbps round trip is lossless for every
	// representable Gbps value: x*1e8/1e8 == x whenever x*1e8 does not
	// overflow, and the preset bandwidths divide 1e8 exactly.
	effBytesPerGbps = 1e9 / 8 * 0.8
)

// BandwidthFromGbps converts a nominal fabric speed in Gbps to the
// effective bandwidth in bytes/second used throughout this package.
func BandwidthFromGbps(gbps float64) float64 { return gbps * effBytesPerGbps }

// GbpsFromBandwidth is the exact inverse of BandwidthFromGbps.
func GbpsFromBandwidth(bw float64) float64 { return bw / effBytesPerGbps }

// Node is one physical machine holding identical GPUs.
type Node struct {
	// Name identifies the node.
	Name string
	// Class is the device class of all GPUs on the node.
	Class gpu.DeviceClass
	// Count is the number of GPUs.
	Count int
	// IntraBW is the GPU-to-GPU bandwidth inside the node.
	IntraBW float64
	// SpeedScale and MemScale, when in (0, 1), derate the node's devices
	// (co-located tenants, MIG slices, throttling). Zero means 1.0.
	SpeedScale float64
	MemScale   float64
}

// spec returns the (possibly derated) device spec for the node.
func (n *Node) spec() (*gpu.Spec, error) {
	s, err := gpu.Lookup(n.Class)
	if err != nil {
		return nil, err
	}
	if n.SpeedScale == 0 && n.MemScale == 0 {
		return s, nil
	}
	return s.Derate(n.SpeedScale, n.MemScale)
}

// Cluster is a set of nodes joined by an inter-node fabric.
type Cluster struct {
	// Name identifies the cluster (e.g. "cluster5").
	Name string
	// Nodes lists the member machines.
	Nodes []Node
	// InterBW is the node-to-node fabric bandwidth.
	InterBW float64
}

// Device is one placeable accelerator (or TP group) in a cluster.
type Device struct {
	// ID is unique within the cluster.
	ID string
	// Spec is the device performance model.
	Spec *gpu.Spec
	// Node is the hosting node's name.
	Node string
	// TPDegree > 1 marks a tensor-parallel group acting as one device.
	TPDegree int
	// Group is the TP aggregation when TPDegree > 1.
	Group *gpu.TPGroup
}

// UsableMemory returns the placement memory budget of the device.
func (d *Device) UsableMemory() int64 {
	if d.Group != nil {
		return d.Group.UsableMemory()
	}
	return d.Spec.UsableMemory()
}

// PrefillLayerLatency prices one decoder layer's prefill pass of v
// sequences of length seq at bit on the device, through its TP group
// when it has one.
func (d *Device) PrefillLayerLatency(m *model.Spec, v, seq, bit int) float64 {
	if d.Group != nil && d.TPDegree > 1 {
		return d.Group.PrefillLayerLatency(m, v, seq, bit)
	}
	return d.Spec.PrefillLayerLatency(m, v, seq, bit)
}

// DecodeLayerLatency prices one decoder layer's decode step for v
// sequences at ctx cached positions on the device, through its TP group
// when it has one.
func (d *Device) DecodeLayerLatency(m *model.Spec, v, ctx, bit, bitKV int) float64 {
	if d.Group != nil && d.TPDegree > 1 {
		return d.Group.DecodeLayerLatency(m, v, ctx, bit, bitKV)
	}
	return d.Spec.DecodeLayerLatency(m, v, ctx, bit, bitKV)
}

// DecodeCurve returns one decoder layer's decode-step latency on the
// device as a function of the context length, for v sequences at bit
// and bitKV, through its TP group when it has one.
func (d *Device) DecodeCurve(m *model.Spec, v, bit, bitKV int) gpu.DecodeCurve {
	if d.Group != nil && d.TPDegree > 1 {
		return d.Group.DecodeCurve(m, v, bit, bitKV)
	}
	return d.Spec.DecodeCurve(m, v, bit, bitKV)
}

// Validate checks the cluster for consistency.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster %q: no nodes", c.Name)
	}
	if c.InterBW <= 0 && len(c.Nodes) > 1 {
		return fmt.Errorf("cluster %q: multi-node cluster without fabric bandwidth", c.Name)
	}
	seen := map[string]bool{}
	for _, n := range c.Nodes {
		if n.Count <= 0 {
			return fmt.Errorf("cluster %q node %q: %d devices", c.Name, n.Name, n.Count)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster %q: duplicate node %q", c.Name, n.Name)
		}
		seen[n.Name] = true
		if _, err := n.spec(); err != nil {
			return fmt.Errorf("cluster %q node %q: %w", c.Name, n.Name, err)
		}
	}
	return nil
}

// Devices expands the cluster into individual placeable devices
// (TP degree 1).
func (c *Cluster) Devices() []Device {
	var out []Device
	for _, n := range c.Nodes {
		spec, err := n.spec()
		if err != nil {
			panic(err) // Validate catches bad nodes before Devices runs
		}
		for i := 0; i < n.Count; i++ {
			out = append(out, Device{
				ID:       fmt.Sprintf("%s/%s%d", n.Name, strings.ToLower(string(n.Class)), i),
				Spec:     spec,
				Node:     n.Name,
				TPDegree: 1,
			})
		}
	}
	return out
}

// TotalDevices returns the GPU count across all nodes.
func (c *Cluster) TotalDevices() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.Count
	}
	return t
}

// ClassCount returns the number of devices of class across all nodes.
func (c *Cluster) ClassCount(class gpu.DeviceClass) int {
	t := 0
	for _, n := range c.Nodes {
		if n.Class == class {
			t += n.Count
		}
	}
	return t
}

// Shrink returns a copy of the cluster with n devices of class removed —
// the topology left behind when an online workload reclaims harvested
// GPUs. Devices are taken from the last nodes of the class first, so the
// surviving devices keep the low indices (serialized plans rebind by
// device ID, and IDs embed the per-node index); nodes emptied entirely
// are dropped. It errors when the cluster holds fewer than n devices of
// the class or when the removal would empty the cluster.
func (c *Cluster) Shrink(class gpu.DeviceClass, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster %q: shrink by %d devices", c.Name, n)
	}
	if have := c.ClassCount(class); n > have {
		return nil, fmt.Errorf("cluster %q: cannot remove %d %s devices, only %d present", c.Name, n, class, have)
	}
	if n >= c.TotalDevices() {
		return nil, fmt.Errorf("cluster %q: removing %d %s devices would empty the cluster", c.Name, n, class)
	}
	nodes := append([]Node(nil), c.Nodes...)
	remaining := n
	for i := len(nodes) - 1; i >= 0 && remaining > 0; i-- {
		if nodes[i].Class != class {
			continue
		}
		take := remaining
		if take > nodes[i].Count {
			take = nodes[i].Count
		}
		nodes[i].Count -= take
		remaining -= take
	}
	out := &Cluster{Name: c.Name, InterBW: c.InterBW}
	for _, nd := range nodes {
		if nd.Count > 0 {
			out.Nodes = append(out.Nodes, nd)
		}
	}
	return out, nil
}

// Grow returns a copy of the cluster with n devices of class added —
// the inverse of Shrink, used when a capacity autoscaler provisions
// extra GPUs into a pool. Devices land on the last existing node of the
// class (so a Shrink-then-Grow round trip restores the original node
// layout and device IDs); when no node of the class exists, a new
// NVLink node named "scale-<class>" is appended.
func (c *Cluster) Grow(class gpu.DeviceClass, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster %q: grow by %d devices", c.Name, n)
	}
	if _, err := gpu.Lookup(class); err != nil {
		return nil, fmt.Errorf("cluster %q: %w", c.Name, err)
	}
	nodes := append([]Node(nil), c.Nodes...)
	placed := false
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].Class == class {
			nodes[i].Count += n
			placed = true
			break
		}
	}
	if !placed {
		nodes = append(nodes, Node{
			Name:    fmt.Sprintf("scale-%s", strings.ToLower(string(class))),
			Class:   class,
			Count:   n,
			IntraBW: NVLinkBW,
		})
	}
	return &Cluster{Name: c.Name, Nodes: nodes, InterBW: c.InterBW}, nil
}

// LinkBandwidth returns the bandwidth between two devices: intra-node
// interconnect when co-located, the inter-node fabric otherwise.
func (c *Cluster) LinkBandwidth(a, b *Device) float64 {
	if a.Node == b.Node {
		for _, n := range c.Nodes {
			if n.Name == a.Node {
				return n.IntraBW
			}
		}
	}
	return c.InterBW
}

// String summarizes the cluster composition, e.g. "3xT4-16G + 1xV100-32G".
func (c *Cluster) String() string {
	counts := map[gpu.DeviceClass]int{}
	for _, n := range c.Nodes {
		counts[n.Class] += n.Count
	}
	classes := make([]gpu.DeviceClass, 0, len(counts))
	for cl := range counts {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	parts := make([]string, 0, len(classes))
	for _, cl := range classes {
		parts = append(parts, fmt.Sprintf("%dx%s", counts[cl], cl))
	}
	return strings.Join(parts, " + ")
}

// Fingerprint returns a deterministic signature of everything that
// influences planning on this cluster: node identities, device classes
// and counts, derating scales, and the interconnect bandwidths. Two
// clusters with equal fingerprints produce identical plans for identical
// inputs, which makes the fingerprint a safe plan-cache key component.
// Node names are included because serialized plans rebind devices by ID,
// and device IDs embed the node name.
func (c *Cluster) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bw=%.6g", c.InterBW)
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "|%s:%s:%d:%.6g:%.4g:%.4g", n.Name, n.Class, n.Count, n.IntraBW, n.SpeedScale, n.MemScale)
	}
	return b.String()
}

// Meshes enumerates the placeable device sets the optimizer considers:
// degree-1 devices plus intra-node TP groups of sizes that evenly divide
// a node's GPU count (2D meshes per §IV-C, restricted to node
// boundaries). Each returned slice is one complete partitioning of the
// cluster into pipeline-stage devices.
func (c *Cluster) Meshes() [][]Device {
	// For each node, list the ways to split its GPUs into equal TP
	// groups; then take the cross product across nodes.
	perNode := make([][][]Device, len(c.Nodes))
	for i, n := range c.Nodes {
		spec, err := n.spec()
		if err != nil {
			panic(err) // Validate catches bad nodes before Meshes runs
		}
		var options [][]Device
		for tp := 1; tp <= n.Count; tp++ {
			if n.Count%tp != 0 {
				continue
			}
			if tp > 1 && n.IntraBW <= 0 {
				continue
			}
			groups := n.Count / tp
			var devs []Device
			for g := 0; g < groups; g++ {
				tg, err := gpu.NewTPGroup(spec, tp, n.IntraBW)
				if err != nil {
					continue
				}
				devs = append(devs, Device{
					ID:       fmt.Sprintf("%s/tp%d-%d", n.Name, tp, g),
					Spec:     spec,
					Node:     n.Name,
					TPDegree: tp,
					Group:    tg,
				})
			}
			options = append(options, devs)
		}
		perNode[i] = options
	}
	var out [][]Device
	var build func(i int, acc []Device)
	build = func(i int, acc []Device) {
		if i == len(perNode) {
			out = append(out, append([]Device(nil), acc...))
			return
		}
		for _, opt := range perNode[i] {
			build(i+1, append(acc, opt...))
		}
	}
	build(0, nil)
	return out
}

// Orderings enumerates distinct pipeline orderings of devs, deduplicating
// permutations that only swap devices of identical class and TP degree
// (they are interchangeable for the ILP). The count is capped at limit to
// bound planner work; limit <= 0 means no cap.
func Orderings(devs []Device, limit int) [][]Device {
	var out [][]Device
	seen := map[string]bool{}
	n := len(devs)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(depth int)
	rec = func(depth int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if depth == n {
			key := orderingKey(devs, perm)
			if !seen[key] {
				seen[key] = true
				ordered := make([]Device, n)
				for i, idx := range perm {
					ordered[i] = devs[idx]
				}
				out = append(out, ordered)
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm[depth] = i
			rec(depth + 1)
			used[i] = false
		}
	}
	rec(0)
	return out
}

// orderingKey canonicalizes an ordering by class+TP signature so
// equivalent-device swaps collapse.
func orderingKey(devs []Device, perm []int) string {
	var b strings.Builder
	for _, idx := range perm {
		d := devs[idx]
		// Include effective speed and memory so derated devices of the
		// same class stay distinguishable.
		fmt.Fprintf(&b, "%s/tp%d/%.4g/%d|", d.Spec.Class, d.TPDegree, d.Spec.FP16FLOPS, d.Spec.MemBytes)
	}
	return b.String()
}
