package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/campaign"
)

// env is what every workload instance shares within one run.
type env struct {
	seed  uint64
	toy   bool   // smoke mode: toy-sized inputs
	work  string // temporary directory of this run, removed at exit
	procs int    // worker count: GOMAXPROCS
	tr    tracerRef
}

// instance is one set-up workload. op runs operation i, whose inputs
// depend only on the seed and i; it returns an error for any wrong
// output. verify checks what can only be checked after the loop, and
// layers turns a traced pass into the workload's per-layer metrics.
type instance interface {
	op(ctx context.Context, i int) error
	verify(ctx context.Context) error
	layers(ctx context.Context, p *pass) (map[string]float64, error)
	close() error
}

// workload is one named workload. setup builds a fresh instance (k
// numbers repeated set-ups, which must not share state), and warmups
// operations then finish the set-up: about 0.1 s of work on a quiet
// host, so caches are warm before timing and set-up times do not rest
// on one cold operation. lanes is the number of timelines its traced
// spans run on.
type workload struct {
	name    string
	setups  int
	warmups int
	lanes   int
	setup   func(ctx context.Context, e *env, k int) (instance, error)
}

var workloads = []workload{
	{name: "grid-cold", setups: 5, warmups: 1, lanes: 1, setup: setupGrid},
	{name: "daemon-warm", setups: 3, warmups: 1, lanes: 1, setup: setupDaemon},
	{name: "cluster-loopback", setups: 9, warmups: 3, lanes: 2, setup: setupCluster},
	{name: "exact-solve", setups: 9, warmups: 6, lanes: 1, setup: setupExact},
}

// build sets w up and runs its warm-up operations.
func build(ctx context.Context, e *env, w workload, k int) (instance, error) {
	inst, err := w.setup(ctx, e, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warmups; i++ {
		if err := inst.op(ctx, i); err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return inst, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed gives operation i of the input stream named tag its own
// seed, a pure function of the run's seed.
func deriveSeed(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	x := (seed ^ h.Sum64()) + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// checkCells checks a finished campaign: no failed job, every job
// completed, every cell's maximum within the paper's upper bound
// ⌈(1+√2)n−1⌉, and every static-path cell exactly n−1.
func checkCells(out *campaign.Outcome) error {
	if out.Failed > 0 {
		return fmt.Errorf("%d/%d jobs failed (first: %s)", out.Failed, out.Jobs, out.Errors[0])
	}
	if out.Completed != out.Jobs {
		return fmt.Errorf("%d of %d jobs completed", out.Completed, out.Jobs)
	}
	for _, c := range out.Cells {
		n, err := cellN(c.Cell)
		if err != nil {
			return err
		}
		if ub := bounds.UpperLinear(n); c.Max > float64(ub) {
			return fmt.Errorf("cell %s: max %g exceeds the upper bound %d", c.Cell, c.Max, ub)
		}
		if strings.HasPrefix(c.Cell, "static-path/") {
			if want := float64(bounds.StaticPath(n)); c.Min != want || c.Max != want {
				return fmt.Errorf("cell %s: rounds in [%g, %g], want exactly %g", c.Cell, c.Min, c.Max, want)
			}
		}
	}
	return nil
}

// cellN reads n out of a cell name such as "k-leaves/n=1024/k=4".
func cellN(cell string) (int, error) {
	for _, part := range strings.Split(cell, "/") {
		if v, ok := strings.CutPrefix(part, "n="); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("cell %q has no n", cell)
}

// trialsOf is the number of trials a campaign's cells hold.
func trialsOf(out *campaign.Outcome) int {
	t := 0
	for _, c := range out.Cells {
		t += c.Count
	}
	return t
}

// roundsOf is the number of rounds a campaign's trials simulated.
func roundsOf(out *campaign.Outcome) int64 {
	var r float64
	for _, c := range out.Cells {
		r += c.Mean * float64(c.Count)
	}
	return int64(r + 0.5)
}
