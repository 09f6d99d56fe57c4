package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func TestPresetsMatchTableIII(t *testing.T) {
	wants := map[int]string{
		1:  "1xV100-32G",
		2:  "1xA100-40G + 2xV100-32G",
		3:  "1xA100-40G + 1xV100-32G",
		4:  "1xA100-40G + 3xV100-32G",
		5:  "3xT4-16G + 1xV100-32G",
		6:  "3xP100-12G + 1xV100-32G",
		7:  "4xT4-16G + 2xV100-32G",
		8:  "4xT4-16G",
		9:  "4xV100-32G",
		10: "4xA100-40G",
	}
	for n, want := range wants {
		c, err := Preset(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.String(); got != want {
			t.Errorf("cluster %d = %q, want %q", n, got, want)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("cluster %d invalid: %v", n, err)
		}
	}
	if _, err := Preset(11); err == nil {
		t.Fatal("preset 11 accepted")
	}
	if _, err := Preset(0); err == nil {
		t.Fatal("preset 0 accepted")
	}
}

func TestFabricSpeeds(t *testing.T) {
	// Clusters 6 and 8 are on 100 Gbps Ethernet, others 800 Gbps.
	for n := 1; n <= 10; n++ {
		c := MustPreset(n)
		want := Eth800BW
		if n == 6 || n == 8 {
			want = Eth100BW
		}
		if c.InterBW != want {
			t.Errorf("cluster %d fabric = %v, want %v", n, c.InterBW, want)
		}
	}
}

func TestDevicesExpansion(t *testing.T) {
	c := MustPreset(7)
	devs := c.Devices()
	if len(devs) != 6 {
		t.Fatalf("cluster 7 has %d devices, want 6", len(devs))
	}
	t4s, v100s := 0, 0
	ids := map[string]bool{}
	for _, d := range devs {
		if ids[d.ID] {
			t.Fatalf("duplicate device id %s", d.ID)
		}
		ids[d.ID] = true
		switch d.Spec.Class {
		case gpu.T4:
			t4s++
		case gpu.V100:
			v100s++
		}
	}
	if t4s != 4 || v100s != 2 {
		t.Fatalf("device mix %d T4 + %d V100", t4s, v100s)
	}
}

func TestLinkBandwidth(t *testing.T) {
	c := MustPreset(5)
	devs := c.Devices()
	// First two T4s share node n0 → NVLink.
	if got := c.LinkBandwidth(&devs[0], &devs[1]); got != NVLinkBW {
		t.Fatalf("intra-node bw = %v", got)
	}
	// T4 to V100 crosses nodes → Ethernet.
	if got := c.LinkBandwidth(&devs[0], &devs[3]); got != Eth800BW {
		t.Fatalf("inter-node bw = %v", got)
	}
}

func TestMeshesIncludeTPOptions(t *testing.T) {
	c := MustPreset(9) // 4×V100 on one node: TP options 1, 2, 4
	meshes := c.Meshes()
	sizes := map[int]bool{}
	for _, mesh := range meshes {
		sizes[len(mesh)] = true
		// Every mesh fully covers the node's 4 GPUs.
		total := 0
		for _, d := range mesh {
			total += d.TPDegree
		}
		if total != 4 {
			t.Fatalf("mesh covers %d GPUs: %+v", total, mesh)
		}
	}
	// 4×TP1, 2×TP2, 1×TP4.
	if !sizes[4] || !sizes[2] || !sizes[1] {
		t.Fatalf("mesh sizes = %v, want {1,2,4}", sizes)
	}
}

// TestClusterUsableMemory checks the cluster's memory against its
// devices' on every preset and a derated cluster: Devices and every
// mesh, TP groups included, hold exactly Cluster.UsableMemory.
func TestClusterUsableMemory(t *testing.T) {
	derated := &Cluster{Name: "derated", InterBW: Eth800BW, Nodes: []Node{
		{Name: "a", Class: gpu.V100, Count: 2, IntraBW: NVLinkBW, MemScale: 0.5},
		{Name: "b", Class: gpu.T4, Count: 1},
	}}
	clusters := []*Cluster{derated}
	for n := 1; n <= 10; n++ {
		clusters = append(clusters, MustPreset(n))
	}
	for _, c := range clusters {
		want := c.UsableMemory()
		for i, devs := range append([][]Device{c.Devices()}, c.Meshes()...) {
			var got int64
			for _, d := range devs {
				got += d.UsableMemory()
			}
			if got != want {
				t.Errorf("%s device set %d holds %d bytes, cluster %d", c.Name, i, got, want)
			}
		}
	}
}

func TestMeshesCrossNodeProduct(t *testing.T) {
	c := MustPreset(2) // node0: 2×V100 (TP1 or TP2), node1: 1×A100 (TP1)
	meshes := c.Meshes()
	if len(meshes) != 2 {
		t.Fatalf("cluster 2 meshes = %d, want 2", len(meshes))
	}
}

func TestOrderingsDeduplicate(t *testing.T) {
	c := MustPreset(8) // 4 identical T4s
	devs := c.Devices()
	ords := Orderings(devs, 0)
	if len(ords) != 1 {
		t.Fatalf("identical devices produced %d orderings, want 1", len(ords))
	}
}

func TestOrderingsHeterogeneous(t *testing.T) {
	c := MustPreset(5) // 3×T4 + 1×V100 → 4 distinct positions for V100
	ords := Orderings(c.Devices(), 0)
	if len(ords) != 4 {
		t.Fatalf("orderings = %d, want 4", len(ords))
	}
}

func TestOrderingsLimit(t *testing.T) {
	c := MustPreset(7)
	ords := Orderings(c.Devices(), 3)
	if len(ords) > 3 {
		t.Fatalf("limit ignored: %d orderings", len(ords))
	}
}

func TestOrderingsPreserveDevicesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%10) + 1
		c := MustPreset(n)
		devs := c.Devices()
		for _, ord := range Orderings(devs, 10) {
			if len(ord) != len(devs) {
				return false
			}
			seen := map[string]bool{}
			for _, d := range ord {
				if seen[d.ID] {
					return false
				}
				seen[d.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadClusters(t *testing.T) {
	bad := &Cluster{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	bad2 := &Cluster{Name: "nofabric", Nodes: []Node{
		{Name: "a", Class: gpu.T4, Count: 1, IntraBW: NVLinkBW},
		{Name: "b", Class: gpu.T4, Count: 1, IntraBW: NVLinkBW},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("multi-node cluster without fabric accepted")
	}
	bad3 := &Cluster{Name: "dup", InterBW: 1, Nodes: []Node{
		{Name: "a", Class: gpu.T4, Count: 1, IntraBW: NVLinkBW},
		{Name: "a", Class: gpu.V100, Count: 1, IntraBW: NVLinkBW},
	}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("duplicate node accepted")
	}
	bad4 := &Cluster{Name: "zero", InterBW: 1, Nodes: []Node{
		{Name: "a", Class: gpu.T4, Count: 0, IntraBW: NVLinkBW},
	}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("zero-count node accepted")
	}
}

func TestTotalDevices(t *testing.T) {
	if got := MustPreset(7).TotalDevices(); got != 6 {
		t.Fatalf("cluster 7 devices = %d", got)
	}
	if got := MustPreset(1).TotalDevices(); got != 1 {
		t.Fatalf("cluster 1 devices = %d", got)
	}
}

func TestShrink(t *testing.T) {
	// Preset 7: 4×T4 on n0 + 2×V100 on n1.
	c := MustPreset(7)
	got, err := c.Shrink(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDevices() != 4 || got.ClassCount(gpu.T4) != 2 || got.ClassCount(gpu.V100) != 2 {
		t.Fatalf("shrunk cluster = %s", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("shrunk cluster invalid: %v", err)
	}
	if got.Fingerprint() == c.Fingerprint() {
		t.Fatal("shrink must change the fingerprint (it keys the plan cache)")
	}
	// The original is untouched.
	if c.ClassCount(gpu.T4) != 4 {
		t.Fatalf("shrink mutated the source cluster: %s", c)
	}
	// Surviving devices keep the low per-node indices, so serialized
	// plans referencing them still rebind.
	devs := got.Devices()
	want := map[string]bool{"n0/t4-16g0": true, "n0/t4-16g1": true}
	for _, d := range devs {
		delete(want, d.ID)
	}
	if len(want) != 0 {
		t.Fatalf("low-index T4 devices missing after shrink: %v of %v", want, devs)
	}
}

func TestShrinkDropsEmptiedNode(t *testing.T) {
	c := MustPreset(7)
	got, err := c.Shrink(gpu.V100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 1 || got.ClassCount(gpu.V100) != 0 {
		t.Fatalf("emptied node should be dropped, got %+v", got.Nodes)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("single-node remainder invalid: %v", err)
	}
}

func TestShrinkErrors(t *testing.T) {
	c := MustPreset(7)
	if _, err := c.Shrink(gpu.T4, 0); err == nil {
		t.Fatal("non-positive shrink accepted")
	}
	if _, err := c.Shrink(gpu.T4, 5); err == nil {
		t.Fatal("removing more devices than present accepted")
	}
	if _, err := c.Shrink(gpu.A100, 1); err == nil {
		t.Fatal("removing an absent class accepted")
	}
	single := MustPreset(1)
	if _, err := single.Shrink(gpu.V100, 1); err == nil {
		t.Fatal("emptying the cluster accepted")
	}
}

// The Gbps → bytes/s → Gbps conversion must be lossless for every
// preset: ClusterSpec.Preset at the root package round-trips the fabric
// bandwidth through these helpers, and any drift would change the
// cluster fingerprint (and thus plan-cache identity) between a preset
// and its rebuilt ClusterSpec.
func TestBandwidthConversionRoundTripsAllPresets(t *testing.T) {
	for n := 1; n <= 10; n++ {
		c := MustPreset(n)
		gbps := GbpsFromBandwidth(c.InterBW)
		if back := BandwidthFromGbps(gbps); back != c.InterBW {
			t.Errorf("preset %d: %.17g bytes/s -> %.17g Gbps -> %.17g bytes/s", n, c.InterBW, gbps, back)
		}
	}
	// And for the nominal speeds a user would type into a ClusterSpec.
	for _, gbps := range []float64{1, 10, 25, 40, 100, 200, 400, 800, 3.5} {
		if back := GbpsFromBandwidth(BandwidthFromGbps(gbps)); back != gbps {
			t.Errorf("%.17g Gbps -> bytes/s -> %.17g Gbps", gbps, back)
		}
	}
	if BandwidthFromGbps(100) != Eth100BW || BandwidthFromGbps(800) != Eth800BW {
		t.Errorf("helpers disagree with the Eth100BW/Eth800BW constants")
	}
}
