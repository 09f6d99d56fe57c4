package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/workload"
)

// jobBatch reads a submitted job's batch.
func jobBatch(s *Server, id string) workload.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].batch
}

func lookupModel(t *testing.T, name string) *model.Spec {
	t.Helper()
	m, err := model.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchMemoMatchesBuild checks that a resubmitted shape gets the
// batch buildBatch synthesizes, for every workload and for two models
// whose position limits differ, from one memo entry per shape.
func TestBatchMemoMatchesBuild(t *testing.T) {
	s := bareServer(t, testConfig(""))
	shapes := 0
	for _, name := range []string{"opt-1.3b", "qwen2.5-7b"} {
		mspec := lookupModel(t, name)
		for _, wl := range []string{"", "summarization", "longcontext", "chat"} {
			spec := JobSpec{Model: name, Workload: wl, Seed: 3, Batch: 4, Requests: 8}
			want, err := buildBatch(spec, mspec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if got := jobBatch(s, mustSubmit(t, s, spec).ID); got != want {
					t.Fatalf("%s workload %q submit %d: batch %+v, want %+v", name, wl, i, got, want)
				}
			}
			shapes++
		}
	}
	if n := s.batches.len(); n != shapes {
		t.Fatalf("memo holds %d entries for %d shapes", n, shapes)
	}
}

// TestBatchMemoNormalizesKey checks that specs differing only in fields
// their batch ignores share one entry: seed 0 is seed 1, and a named
// profile ignores prompt, output and the explicit "fixed" spelling does
// not split the fixed profile.
func TestBatchMemoNormalizesKey(t *testing.T) {
	s := bareServer(t, testConfig(""))
	groups := [][]JobSpec{
		{
			{Model: "opt-1.3b", Workload: "chat", Batch: 4, Requests: 8},
			{Model: "opt-1.3b", Workload: "chat", Seed: 1, Batch: 4, Requests: 8},
			{Model: "opt-1.3b", Workload: "chat", Seed: 1, Batch: 4, Requests: 8, Prompt: 100, Output: 9},
		},
		{
			{Model: "opt-1.3b", Batch: 4, Requests: 8},
			{Model: "opt-1.3b", Workload: "fixed", Batch: 4, Requests: 8, Seed: 7},
			{Model: "opt-1.3b", Batch: 4, Requests: 8, Prompt: 512, Output: 32},
		},
	}
	for g, specs := range groups {
		first := jobBatch(s, mustSubmit(t, s, specs[0]).ID)
		for _, spec := range specs[1:] {
			if got := jobBatch(s, mustSubmit(t, s, spec).ID); got != first {
				t.Fatalf("spec %+v: batch %+v, want %+v", spec, got, first)
			}
		}
		if n := s.batches.len(); n != g+1 {
			t.Fatalf("after group %d the memo holds %d entries, want %d", g, n, g+1)
		}
	}
}

// TestBatchMemoBounded checks that the memo never holds more than the
// plan cache's capacity and that rejected specs store nothing.
func TestBatchMemoBounded(t *testing.T) {
	cfg := testConfig("")
	cfg.CacheCapacity = 3
	s := bareServer(t, cfg)
	for seed := uint64(1); seed <= 6; seed++ {
		mustSubmit(t, s, JobSpec{Model: "opt-1.3b", Workload: "summarization", Seed: seed, Batch: 4, Requests: 8})
		if n := s.batches.len(); n > cfg.CacheCapacity {
			t.Fatalf("seed %d: memo holds %d entries, capacity %d", seed, n, cfg.CacheCapacity)
		}
	}
	if _, err := s.Submit(JobSpec{Model: "opt-1.3b", Workload: "mystery", Batch: 4, Requests: 8}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if n := s.batches.len(); n != cfg.CacheCapacity {
		t.Fatalf("memo holds %d entries, want %d", n, cfg.CacheCapacity)
	}
}

// TestBatchMemoConcurrentSubmit submits one spec from several
// goroutines at once (run it under -race).
func TestBatchMemoConcurrentSubmit(t *testing.T) {
	s := bareServer(t, testConfig(""))
	spec := JobSpec{Model: "opt-1.3b", Workload: "longcontext", Seed: 5, Batch: 4, Requests: 8}
	want, err := buildBatch(spec, lookupModel(t, "opt-1.3b"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(spec)
			ids[i], errs[i] = v.ID, err
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := jobBatch(s, ids[i]); got != want {
			t.Fatalf("job %s: batch %+v, want %+v", ids[i], got, want)
		}
	}
	if m := s.batches.len(); m != 1 {
		t.Fatalf("memo holds %d entries for one shape", m)
	}
}

// TestFixedBatchIgnoresRequestCount pins the shortcut in batchKey.build:
// a fixed profile of one request synthesizes the same batch as one of B.
func TestFixedBatchIgnoresRequestCount(t *testing.T) {
	for _, name := range []string{"opt-1.3b", "llama3.3-70b"} {
		mspec := lookupModel(t, name)
		for _, c := range []struct{ batch, prompt, output int }{
			{1, 512, 32}, {8, 100, 8}, {32, 1, 1}, {16, 3000, 700}, {4, 200000, 90}, {2, 10, 5000},
		} {
			want, err := workload.Synthesize(workload.Fixed(c.batch, c.prompt, c.output), c.batch, 2048, mspec.MaxPos)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildBatch(JobSpec{Batch: c.batch, Prompt: c.prompt, Output: c.output}, mspec)
			if err != nil || got != want {
				t.Fatalf("%s %+v: batch %+v (%v), want %+v", name, c, got, err, want)
			}
		}
	}
}

// TestNegativeLengthsRejected is the regression for negative prompt or
// output lengths, which a fixed job used to plan as a 1-token job.
func TestNegativeLengthsRejected(t *testing.T) {
	srv, c := startServer(t, testConfig(""))
	defer shutdown(t, srv)
	bad := []JobSpec{
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Prompt: -5, Output: -3},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Prompt: -1},
		{Model: "opt-1.3b", Batch: 8, Requests: 8, Output: -1},
	}
	for _, spec := range bad {
		if _, err := srv.Submit(spec); !errors.Is(err, ErrRejected) {
			t.Errorf("Go API, spec %+v: got %v, want ErrRejected", spec, err)
		}
		_, err := c.Submit(spec)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
			t.Errorf("HTTP, spec %+v: got %v, want http 422", spec, err)
		}
	}
	if m := srv.Metrics(); m.Rejected != 2*len(bad) || m.Submitted != 0 {
		t.Fatalf("Rejected = %d, Submitted = %d; want %d and 0", m.Rejected, m.Submitted, 2*len(bad))
	}
}

// FuzzJobSpec decodes arbitrary bytes as a JobSpec, the way the submit
// endpoint does, and submits the spec twice to a server without
// workers. Each submission is rejected, or its job's batch passes
// Validate and equals buildBatch(spec), and its deadline, when it has
// one, is not before its submission; the second is served from the
// batch memo.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"model":"opt-1.3b","batch":8,"requests":8}`,
		`{"model":"opt-1.3b","batch":8,"requests":8,"prompt":-5,"output":-3}`,
		`{"model":"opt-1.3b","workload":"fixed","batch":4,"requests":8,"prompt":3000,"output":900,"seed":4}`,
		`{"model":"opt-1.3b","workload":"chat","seed":3,"batch":16,"requests":640,"method":"ilp"}`,
		`{"model":"qwen2.5-7b","workload":"summarization","batch":16,"requests":640,"theta":2}`,
		`{"model":"qwen2.5-7b","workload":"longcontext","batch":4,"requests":64,"priority":3}`,
		`{"model":"opt-1.3b","workload":"mystery","batch":4,"requests":8}`,
		`{"model":"opt-1.3b","batch":9223372036854775807,"requests":9223372036854775807}`,
		`{"model":"llama3.3-70b","batch":32,"requests":32}`,
		`{"model":"opt-1.3b","batch":8,"requests":8,"deadline_seconds":-1}`,
		`{"model":"opt-1.3b","batch":8,"requests":8,"deadline_seconds":1e10}`,
		`{"model":"opt-1.3b","batch":8,"requests":8,"deadline_seconds":9.2e9}`,
		`{"model":"opt-1.3b","batch":8,"requests":8,"extra":1}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		s, err := newServer(testConfig(""), clock.Real)
		if err != nil {
			t.Fatal(err)
		}
		defer s.baseCancel()
		for i := 0; i < 2; i++ {
			v, err := s.Submit(spec)
			if err != nil {
				continue
			}
			mspec, err := model.Lookup(spec.Model)
			if err != nil {
				t.Fatalf("accepted %+v for an unknown model: %v", spec, err)
			}
			want, err := buildBatch(spec, mspec)
			if err != nil {
				t.Fatalf("accepted %+v that buildBatch fails: %v", spec, err)
			}
			got := jobBatch(s, v.ID)
			if err := got.Validate(); err != nil {
				t.Fatalf("accepted %+v: %v", spec, err)
			}
			if got != want {
				t.Fatalf("submit %d of %+v: batch %+v, want %+v", i, spec, got, want)
			}
			// A sub-nanosecond deadline rounds to the submission instant.
			if (v.Deadline != nil) != (spec.DeadlineSeconds > 0) || v.Deadline != nil && v.Deadline.Before(v.SubmittedAt) {
				t.Fatalf("accepted %+v with deadline %v, submitted %v", spec, v.Deadline, v.SubmittedAt)
			}
		}
	})
}
