package serve

import (
	"container/heap"
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Submissions that fail admission never become
// jobs; every accepted job ends in completed, failed, or canceled.
const (
	StateQueued    State = "queued"
	StatePlanning  State = "planning"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// JobSpec is one batch-serving job submission.
type JobSpec struct {
	// Model is the architecture to serve (see splitquant.Models).
	Model string `json:"model"`
	// Workload names the request profile: fixed | summarization |
	// longcontext | chat (default fixed).
	Workload string `json:"workload,omitempty"`
	// Batch is the number of concurrent requests B.
	Batch int `json:"batch"`
	// Prompt and Output shape the fixed workload (defaults 512 / 32).
	Prompt int `json:"prompt,omitempty"`
	Output int `json:"output,omitempty"`
	// Seed drives workload sampling (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Requests is the total request volume; the job runs ⌈Requests/B⌉
	// sequential batches.
	Requests int `json:"requests"`
	// Priority orders the queue: higher runs first (default 0).
	Priority int `json:"priority,omitempty"`
	// DeadlineSeconds, when > 0, is a relative completion deadline. Jobs
	// still queued past their deadline fail instead of running; within a
	// priority tier, tighter deadlines run first.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Theta overrides the server's quality scalar θ for this job (0 =
	// server default; Submit rejects a negative θ).
	Theta float64 `json:"theta,omitempty"`
	// Method overrides the planning algorithm ("" = server default).
	Method string `json:"method,omitempty"`
}

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Spec        JobSpec    `json:"spec"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Deadline    *time.Time `json:"deadline,omitempty"`
	// Resource is the pool the job ran (or is running) on.
	Resource string `json:"resource,omitempty"`
	// Plan is the compact deployment-plan summary.
	Plan string `json:"plan,omitempty"`
	// CacheHit reports that planning was served from the plan cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// BatchesDone / BatchesTotal track execution progress.
	BatchesDone  int `json:"batches_done"`
	BatchesTotal int `json:"batches_total"`
	// PlanSeconds is planner wall-clock time (0 on a cache hit).
	PlanSeconds float64 `json:"plan_seconds,omitempty"`
	// SimSeconds is the job's simulated wall-clock on its resource
	// (batches × batch latency / availability).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Throughput is the simulated output-token rate while running.
	Throughput float64 `json:"throughput_tps,omitempty"`
	// Preemptions counts pool-shrink events the job observed at batch
	// boundaries; Replans counts the mid-job re-plans of the remaining
	// batches (each against the pool's then-current topology).
	Preemptions int `json:"preemptions,omitempty"`
	Replans     int `json:"replans,omitempty"`
	// Requeued reports that the drain timeout checkpointed this job back
	// to the queue (BatchesDone batches are done and stay done).
	Requeued bool   `json:"requeued,omitempty"`
	Error    string `json:"error,omitempty"`
}

// job is the server-side record. Mutable fields are guarded by the
// server mutex.
type job struct {
	id    string
	seq   int
	spec  JobSpec
	mspec *model.Spec
	batch workload.Batch

	submitted time.Time
	deadline  time.Time // zero = none

	state        State
	started      time.Time
	finished     time.Time
	resource     string
	planStr      string
	cacheHit     bool
	batchesDone  int
	batchesTotal int
	planSeconds  float64
	simSeconds   float64
	throughput   float64
	preemptions  int
	replans      int
	errMsg       string

	// cancelRequested is set by Cancel; cancel aborts in-flight planner
	// or executor work when the job is already executing.
	cancelRequested bool
	cancel          context.CancelFunc

	// requeuedByDrain marks a job the drain-timeout path checkpointed
	// back to the queue; the unwinding executor must not cancel it.
	requeuedByDrain bool

	// tried records pools where the job proved infeasible (OOM / no
	// plan); admission only guarantees the job fits *some* pool, so the
	// executor retries it elsewhere before failing it.
	tried map[string]bool

	// unrun is the simulated seconds of the job's unrun batches that
	// its pool's load still counts (see Server.reserveLocked).
	unrun float64
}

// view snapshots the job (caller holds the server mutex).
func (j *job) view() JobView {
	v := JobView{
		ID:           j.id,
		State:        j.state,
		Spec:         j.spec,
		SubmittedAt:  j.submitted,
		Resource:     j.resource,
		Plan:         j.planStr,
		CacheHit:     j.cacheHit,
		BatchesDone:  j.batchesDone,
		BatchesTotal: j.batchesTotal,
		PlanSeconds:  j.planSeconds,
		SimSeconds:   j.simSeconds,
		Throughput:   j.throughput,
		Preemptions:  j.preemptions,
		Replans:      j.replans,
		Requeued:     j.requeuedByDrain,
		Error:        j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		v.Deadline = &t
	}
	return v
}

// batches returns the job's sequential batch count.
func (j *job) batches() int {
	return (j.spec.Requests + j.spec.Batch - 1) / j.spec.Batch
}

// jobQueue is a priority queue: higher priority first, then earlier
// deadline (none = latest), then submission order.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }

func (q jobQueue) Less(a, b int) bool {
	if q[a].spec.Priority != q[b].spec.Priority {
		return q[a].spec.Priority > q[b].spec.Priority
	}
	da, db := q[a].deadline, q[b].deadline
	if !da.Equal(db) {
		if da.IsZero() {
			return false
		}
		if db.IsZero() {
			return true
		}
		return da.Before(db)
	}
	return q[a].seq < q[b].seq
}

func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }

func (q *jobQueue) Push(x any) { *q = append(*q, x.(*job)) }

func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

var _ heap.Interface = (*jobQueue)(nil)

// batchKey holds the JobSpec fields that determine a job's batch,
// normalized so that specs with the same batch share one key: the
// workload ("" means fixed), the seed (0 means 1; unused by fixed),
// prompt and output (512 / 32 when unset; used only by fixed), the batch
// size and the model's position limit.
type batchKey struct {
	workload       string
	seed           uint64
	prompt, output int
	size, maxPos   int
}

func batchKeyOf(spec JobSpec, mspec *model.Spec) batchKey {
	k := batchKey{workload: spec.Workload, seed: spec.Seed, size: spec.Batch, maxPos: mspec.MaxPos}
	if k.workload == "" || k.workload == "fixed" {
		k.workload, k.seed = "fixed", 0
		k.prompt, k.output = spec.Prompt, spec.Output
		if k.prompt == 0 {
			k.prompt = 512
		}
		if k.output == 0 {
			k.output = 32
		}
	} else if k.seed == 0 {
		k.seed = 1
	}
	return k
}

// build synthesizes the batch. The fixed profile's requests are all
// alike, so one request gives the same batch as B of them.
func (k batchKey) build() (workload.Batch, error) {
	var prof *workload.Profile
	if k.workload == "fixed" {
		prof = workload.Fixed(1, k.prompt, k.output)
	} else {
		var err error
		if prof, err = workload.Named(k.workload, k.seed); err != nil {
			return workload.Batch{}, err
		}
	}
	return workload.Synthesize(prof, k.size, 2048, k.maxPos)
}

// buildBatch synthesizes the planner batch for a job spec.
func buildBatch(spec JobSpec, mspec *model.Spec) (workload.Batch, error) {
	return batchKeyOf(spec, mspec).build()
}

// batchMemo is a bounded LRU of synthesized batches: a named profile
// samples 2000 requests, so a repeated job shape reuses its batch
// instead of sampling again. Clients pick the seed, hence the bound.
// Failed builds are not stored.
type batchMemo struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // of *batchEntry; front = most recently used
	index    map[batchKey]*list.Element
}

type batchEntry struct {
	key   batchKey
	batch workload.Batch
}

func newBatchMemo(capacity int) *batchMemo {
	return &batchMemo{capacity: capacity, ll: list.New(), index: map[batchKey]*list.Element{}}
}

// batch returns the job's batch, building and storing it on a miss. The
// build runs outside the lock; concurrent misses on one key build the
// same batch and the first store wins.
func (m *batchMemo) batch(spec JobSpec, mspec *model.Spec) (workload.Batch, error) {
	k := batchKeyOf(spec, mspec)
	m.mu.Lock()
	if e, ok := m.index[k]; ok {
		m.ll.MoveToFront(e)
		b := e.Value.(*batchEntry).batch
		m.mu.Unlock()
		return b, nil
	}
	m.mu.Unlock()
	b, err := k.build()
	if err != nil {
		return workload.Batch{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index[k]; !ok {
		m.index[k] = m.ll.PushFront(&batchEntry{key: k, batch: b})
		if m.ll.Len() > m.capacity {
			old := m.ll.Remove(m.ll.Back()).(*batchEntry)
			delete(m.index, old.key)
		}
	}
	return b, nil
}

func (m *batchMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// admissionCheck rejects jobs that cannot possibly fit any resource: the
// model's footprint at the *lowest* candidate bitwidth — weights plus the
// batch's KV reservation plus the master-engine embedding — is a lower
// bound on any plan's memory, so exceeding every pool's total capacity
// means every candidate configuration would OOM. This turns the
// Uniform-OOM class of jobs into a submit-time rejection instead of a
// planning-time failure.
func admissionCheck(mspec *model.Spec, batch workload.Batch, bits []int, bitKV int, resources []scheduler.Resource) error {
	minBit := slices.Min(bits)
	need := mspec.ModelBytes(minBit, batch.KVBytesPerLayer(mspec, bitKV))
	var best int64
	bestName := ""
	for i := range resources {
		if capacity := resources[i].Cluster.UsableMemory(); capacity > best {
			best, bestName = capacity, resources[i].Name
		}
	}
	if need > best {
		return fmt.Errorf("%s needs ≥ %.1f GiB at %d-bit for B=%d, largest pool %s offers %.1f GiB: %w",
			mspec.Name, gib(need), minBit, batch.Size, bestName, gib(best), ErrInfeasible)
	}
	return nil
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }
