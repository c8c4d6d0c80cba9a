package campaign

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
)

// TestBatchedPipelineByteIdentity is the batching battery: the golden
// grid, under both goals, emits the committed golden artifact bytes for
// every batch size × worker count combination.
func TestBatchedPipelineByteIdentity(t *testing.T) {
	for _, goal := range goldenGoals {
		t.Run(goal, func(t *testing.T) {
			for _, batch := range []int{1, 3, 0} {
				for _, workers := range []int{1, 4} {
					o, err := RunSpec(context.Background(), goldenSpec(goal), Config{Workers: workers, Batch: batch})
					if err != nil {
						t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
					}
					checkGolden(t, fmt.Sprintf("batch=%d workers=%d", batch, workers), o)
				}
			}
		})
	}
}

// TestBatchedKillAndResumeByteIdentity extends the checkpoint guarantee
// to the batched pipeline: kill mid-run at any batch size, resume at
// another, and the artifact still matches the golden bytes.
func TestBatchedKillAndResumeByteIdentity(t *testing.T) {
	spec := goldenSpec("broadcast")
	for _, batch := range []int{1, 3, 0} {
		for _, resumeBatch := range []int{0, 1} {
			// Phase 1: checkpoint into memory and cancel after a few
			// results land.
			var ckpt bytes.Buffer
			jobs, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			cw, err := NewCheckpointWriter(&ckpt, spec, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			_, runErr := RunSpec(ctx, spec, Config{
				Workers: 2, Batch: batch,
				OnResult: func(r JobResult) {
					cw.Record(r)
					if seen++; seen == 7 {
						cancel()
					}
				},
			})
			cancel()
			if runErr == nil {
				t.Fatalf("batch=%d: interrupted run reported no error", batch)
			}
			if err := cw.Err(); err != nil {
				t.Fatal(err)
			}

			// Phase 2: resume from the checkpoint at a different batch
			// size and worker count.
			cp, err := LoadCheckpoint(&ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(cp.Results) == 0 {
				t.Fatalf("batch=%d: checkpoint recorded nothing", batch)
			}
			resumed, err := ResumeSpec(context.Background(), spec, cp, Config{Workers: 3, Batch: resumeBatch})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("batch=%d resumeBatch=%d", batch, resumeBatch), resumed)
		}
	}
}

// TestSliceBatches pins the scheduling-unit construction: whole cells by
// default, capped runs with a batch size, singletons for cell-less jobs.
func TestSliceBatches(t *testing.T) {
	mk := func(cells ...string) []Job {
		jobs := make([]Job, len(cells))
		for i, c := range cells {
			jobs[i] = Job{Index: i, Cell: c}
		}
		return jobs
	}
	cases := []struct {
		name string
		jobs []Job
		size int
		want []batch
	}{
		{"whole cells", mk("a", "a", "a", "b", "b"), 0, []batch{{0, 3}, {3, 5}}},
		{"capped", mk("a", "a", "a", "b", "b"), 2, []batch{{0, 2}, {2, 3}, {3, 5}}},
		{"per trial", mk("a", "a"), 1, []batch{{0, 1}, {1, 2}}},
		{"ad hoc singletons", mk("", "", ""), 0, []batch{{0, 1}, {1, 2}, {2, 3}}},
		{"interleaved", mk("a", "b", "a"), 0, []batch{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, tc := range cases {
		got := sliceBatches(tc.jobs, tc.size)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: batch %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFamilyReusableMatchesNew is the reset contract every built-in
// family's NewReusable must keep: at each n, one instance Reset per trial
// — the arena's lifecycle for a cell — plays the same rounds as a
// freshly constructed instance per trial. The n sequence shrinks and
// grows between cells (cross-n reuse of the stock adversaries'
// buffers is pinned in the adversary package).
func TestFamilyReusableMatchesNew(t *testing.T) {
	// The built-ins as registered (defaults normalized); families other
	// tests register are fixtures, not adversaries.
	for _, b := range append(builtinFamilies(), searchFamilies()...) {
		f, _ := familyByName(b.Name)
		t.Run(f.Name, func(t *testing.T) {
			var params Params
			if len(f.Params) > 0 {
				params = Params{}
				for _, p := range f.Params {
					if p.Default != nil {
						params[p.Name] = p.Default
					} else {
						params[p.Name] = float64(2) // the k families
					}
				}
			}
			runner := core.NewRunner()
			for _, n := range []int{16, 5, 31} {
				if f.Feasible != nil && !f.Feasible(n, params) {
					continue
				}
				reused, err := f.NewReusable(n, params)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 4; trial++ {
					seed := uint64(n*100 + trial)
					fresh, err := f.NewReusable(n, params)
					if err != nil {
						t.Fatal(err)
					}
					fresh.Reset(rng.New(seed))
					want, errA := core.BroadcastTime(n, fresh)
					reused.Reset(rng.New(seed))
					got, errB := runner.BroadcastTime(n, reused)
					if errA != nil || errB != nil || want != got {
						t.Fatalf("n=%d trial %d: fresh %d (%v), reused %d (%v)", n, trial, want, errA, got, errB)
					}
				}
			}
		})
	}
}

// TestArenaAdversaryFor: the arena caches one adversary per cell,
// rebuilding only on cell changes and resetting on every trial.
func TestArenaAdversaryFor(t *testing.T) {
	a := NewArena()
	builds := 0
	build := func() (ReusableAdversary, error) {
		builds++
		return countingReusable{resets: new(int)}, nil
	}
	r1, err := a.AdversaryFor("cell-a", nil, build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdversaryFor("cell-a", nil, build); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("same cell rebuilt: %d builds", builds)
	}
	if got := *r1.(countingReusable).resets; got != 2 {
		t.Errorf("resets = %d, want 2", got)
	}
	if _, err := a.AdversaryFor("cell-b", nil, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("cell change did not rebuild: %d builds", builds)
	}
	failing := func() (ReusableAdversary, error) { return nil, fmt.Errorf("boom") }
	if _, err := a.AdversaryFor("cell-c", nil, failing); err == nil {
		t.Error("build error swallowed")
	}
}

type countingReusable struct {
	core.Adversary
	resets *int
}

func (c countingReusable) Reset(*rng.Source) { *c.resets++ }
