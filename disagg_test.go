package splitquant

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPlanDisaggregated exercises the public phase-split path on the
// paper's heterogeneous cluster 2 (2×V100 + 1×A100): the A100 prefills
// at high precision, the V100s decode at low bits with quantized KV,
// and both phase deployments Measure on their own pools.
func TestPlanDisaggregated(t *testing.T) {
	sys, err := New("opt-13b", Preset(2))
	if err != nil {
		t.Fatal(err)
	}
	w := FixedWorkload(16, 256, 64)
	dd, err := sys.PlanDisaggregated(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The prefill Deployment measures on the batch core planned the
	// prefill pool on, and the decode Deployment on the caller's batch.
	batch, err := sys.synthesize(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sys.resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := core.PlanDisaggregated(context.Background(), sys.spec, sys.clu, sys.ind, sys.coreOptions(o), batch)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Prefill.batch != dp.PrefillBatch {
		t.Fatalf("prefill deployment batch %+v, core planned the prefill pool on %+v", dd.Prefill.batch, dp.PrefillBatch)
	}
	if dp.PrefillBatch.GenTokens != 1 || dp.PrefillBatch.Reserve() != 1 {
		t.Fatalf("prefill pool planned with a %d-token generation budget, want 1", dp.PrefillBatch.Reserve())
	}
	if dd.Decode.batch != batch {
		t.Fatalf("decode deployment batch %+v, want the caller's %+v", dd.Decode.batch, batch)
	}
	for _, st := range dd.Prefill.Stages() {
		if !strings.HasPrefix(st.GPU, "A100") {
			t.Fatalf("prefill stage on %s, want A100", st.GPU)
		}
		for _, b := range st.Bits {
			if b < 8 {
				t.Fatalf("prefill pool at %d bits", b)
			}
		}
	}
	for _, st := range dd.Decode.Stages() {
		if !strings.HasPrefix(st.GPU, "V100") {
			t.Fatalf("decode stage on %s, want V100", st.GPU)
		}
		for _, b := range st.Bits {
			if b > 8 {
				t.Fatalf("decode pool at %d bits", b)
			}
		}
	}

	pre, err := dd.Prefill.Measure()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := dd.Decode.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if pre.TotalSeconds <= 0 || dec.TotalSeconds <= 0 {
		t.Fatalf("degenerate phase latencies: prefill %v, decode %v", pre.TotalSeconds, dec.TotalSeconds)
	}
	// The prefill deployment only ever generates the first token.
	if pre.OutputTokens != 16 {
		t.Fatalf("prefill pool generated %d tokens, want 16 (one per request)", pre.OutputTokens)
	}
}
