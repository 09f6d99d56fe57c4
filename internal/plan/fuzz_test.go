package plan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// FuzzPlanJSON fuzzes the wire format that cached plans are read back
// from disk in. Decoding arbitrary bytes must not panic.
// Validate must return an error, not panic, on a negative FirstLayer,
// an empty stage or an unknown bitwidth. A decoded plan that binds to a
// preset cluster and validates must survive Marshal → Unmarshal → Bind
// unchanged.
func FuzzPlanJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_plan.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	const stage = `{"device":"n0/tp1-0","node":"n0","tp_degree":1,`
	for _, stages := range []string{
		stage + `"first_layer":0,"bits":[16,8]}`,
		stage + `"first_layer":-1,"bits":[16]}`,
		stage + `"first_layer":0,"bits":[]}`,
		stage + `"first_layer":0,"bits":[5]}`,
		stage + `"first_layer":0,"bits":[4]},` + `{"device":"n0/tp1-1","first_layer":1,"bits":[3,3]}`,
	} {
		f.Add([]byte(`{"model":"m","stages":[` + stages + `],"prefill_microbatch":2,"decode_microbatch":1,"kv_bits":16}`))
	}
	f.Add([]byte(`{"stages":null}`))
	f.Add([]byte(`[`))

	var presets []*cluster.Cluster
	for n := 1; n <= 10; n++ {
		presets = append(presets, cluster.MustPreset(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if json.Unmarshal(data, &p) != nil {
			return
		}
		malformed := false
		for _, s := range p.Stages {
			malformed = malformed || s.FirstLayer < 0 || len(s.Bits) == 0
			for _, b := range s.Bits {
				malformed = malformed || (b != 3 && b != 4 && b != 8 && b != 16)
			}
		}
		layers := p.Layers()
		for _, clu := range presets {
			var bound Plan
			if err := json.Unmarshal(data, &bound); err != nil {
				t.Fatalf("second decode of the same bytes failed: %v", err)
			}
			if bound.Bind(clu) != nil {
				continue
			}
			err := bound.Validate(layers)
			if malformed && err == nil {
				t.Fatalf("malformed plan validated on %s: %+v", clu.Name, bound)
			}
			if err != nil {
				continue
			}
			wire, err := json.Marshal(&bound)
			if err != nil {
				t.Fatalf("marshal of a valid plan: %v", err)
			}
			var back Plan
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatalf("re-decode %s: %v", wire, err)
			}
			if err := back.Bind(clu); err != nil {
				t.Fatalf("re-bind on %s: %v", clu.Name, err)
			}
			if !reflect.DeepEqual(&back, &bound) {
				t.Fatalf("round trip on %s changed the plan:\n got %+v\nwant %+v", clu.Name, back, bound)
			}
		}
	})
}
