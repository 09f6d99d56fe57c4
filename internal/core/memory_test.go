package core

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FuzzPlanMemoryMatchesSimulate checks that the planner and the
// simulator agree on memory: evaluate finds a contiguous assignment
// feasible exactly when pipeline.Simulate runs its plan without ErrOOM.
// The input draws a registered model, a preset cluster and one of its
// meshes (rotated, so any device can be the master), a batch of B
// requests of fixed prompt and output lengths, η and ξ from the
// micro-batch sizes the planner enumerates for B, the KV bitwidth, and a
// contiguous assignment with random bits.
func FuzzPlanMemoryMatchesSimulate(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), uint8(2), uint8(0), uint8(1), uint8(0), uint16(512), uint16(32), uint64(1))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1), uint8(3), uint8(2), uint8(1), uint16(2047), uint16(255), uint64(2))
	f.Add(uint8(5), uint8(5), uint8(3), uint8(2), uint8(1), uint8(3), uint8(0), uint16(1024), uint16(128), uint64(3))
	f.Add(uint8(0), uint8(8), uint8(2), uint8(0), uint8(2), uint8(0), uint8(1), uint16(100), uint16(7), uint64(4))
	f.Add(uint8(6), uint8(9), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint16(4000), uint16(400), uint64(5))
	var specs []*model.Spec
	for _, name := range model.Names() {
		spec, err := model.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		specs = append(specs, spec)
	}
	f.Fuzz(func(t *testing.T, mi, preset, mesh, bi, ei, xi, ki uint8, prompt, gen uint16, seed uint64) {
		spec := specs[int(mi)%len(specs)]
		clu := cluster.MustPreset(1 + int(preset)%10)
		meshes := clu.Meshes()
		mdevs := meshes[int(mesh)%len(meshes)]
		devs := append(append([]cluster.Device(nil), mdevs[int(seed%7)%len(mdevs):]...), mdevs[:int(seed%7)%len(mdevs)]...)
		if len(devs) > spec.Layers {
			t.Skip("more devices than layers")
		}
		B := []int{8, 16, 32, 64}[bi%4]
		mbs := candidateMicroBatches(B)
		eta, xiv := mbs[int(ei)%len(mbs)], mbs[int(xi)%len(mbs)]
		bitKV := []int{8, 16}[ki%2]
		batch, err := workload.Synthesize(workload.Fixed(B, 1+int(prompt)%4096, 1+int(gen)%512), B, 512, spec.MaxPos)
		if err != nil {
			t.Fatal(err)
		}

		ind := &Indicator{Bits: CandidateBits, Omega: make([][]float64, spec.Layers)}
		for i := range ind.Omega {
			ind.Omega[i] = make([]float64, len(CandidateBits))
		}
		oc := buildCosts(spec, clu, devs, CandidateBits, batch, eta, xiv, bitKV, nil)
		rng := stats.NewRNG(seed)
		as := &assignment{stageOf: make([]int, spec.Layers), bitIdx: make([]int, spec.Layers)}
		spare, i := spec.Layers-len(devs), 0
		for j := range devs {
			size := 1 + rng.Intn(spare+1)
			if j == len(devs)-1 {
				size = spec.Layers - i
			}
			spare -= size - 1
			for ; size > 0; size-- {
				as.stageOf[i], as.bitIdx[i] = j, rng.Intn(len(CandidateBits))
				i++
			}
		}
		ev := evaluate(as, oc, ind, 0)
		p, err := toPlan(as, oc, ind, 0, "fuzz", bitKV)
		if err != nil {
			t.Fatal(err)
		}
		p.Model = spec.Name
		_, err = pipeline.Simulate(p, spec, clu, batch)
		oom := errors.Is(err, pipeline.ErrOOM)
		if err != nil && !oom {
			t.Fatal(err)
		}
		if ev.Feasible == oom {
			t.Fatalf("%s on %s (B=%d η=%d ξ=%d kv=%d): planner feasible %t, simulator error %v\n%s",
				spec.Name, clu.Name, B, eta, xiv, bitKV, ev.Feasible, err, p)
		}
	})
}
