package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// gridSpecs are the two campaigns of grid-cold operation i, as two
// cmd/campaign runs sharing one cache would run them. The first holds the
// n = 1024 cells: engine-bound static-path and two-phase-path, where Next
// is under 1% of a trial, and adversary-bound k-leaves and random-tree.
// The second holds block-leader, whose Next is 95% of a trial, at the
// sizes where a trial stays in the milliseconds, beside the random
// families at the same sizes.
func gridSpecs(seed uint64, i int, toy bool) []campaign.Spec {
	s := deriveSeed(seed, "grid-cold", i)
	k4 := map[string]any{"k": 4}
	large := campaign.Spec{
		Name: "grid-cold-large",
		Scenarios: []campaign.Scenario{
			{Adversary: "static-path"}, {Adversary: "two-phase-path"},
			{Adversary: "k-leaves", Params: k4}, {Adversary: "random-tree"},
		},
		Ns: []int{1024}, Trials: 2, Seed: s,
	}
	small := campaign.Spec{
		Name: "grid-cold-small",
		Scenarios: []campaign.Scenario{
			{Adversary: "block-leader"}, {Adversary: "random-tree"}, {Adversary: "k-leaves", Params: k4},
		},
		Ns: []int{128, 256}, Trials: 8, Seed: s,
	}
	if toy {
		large.Ns, large.Trials = []int{32}, 1
		small.Ns, small.Trials = []int{8, 16}, 2
	}
	return []campaign.Spec{large, small}
}

// replayOps is how many operations of a traced grid-cold pass have their
// trials replayed for the adversary and engine split.
const replayOps = 2

type grid struct {
	e    *env
	root string
	seq  int            // operations run, for fresh directories
	dirs map[int]string // operation → its directory, in the current pass

	// per-pass accumulators, reset at operation 0
	trials, rounds         int64
	puts                   int64
	ckptBytes, ckptRecords int64
}

func setupGrid(_ context.Context, e *env, k int) (instance, error) {
	g := &grid{e: e, root: filepath.Join(e.work, fmt.Sprintf("grid-%d", k))}
	if err := os.MkdirAll(g.root, 0o755); err != nil {
		return nil, err
	}
	return g, nil
}

// op is one cold cmd/campaign -cache DIR -checkpoint FILE run of each of
// the operation's specs, against a fresh cache directory.
func (g *grid) op(ctx context.Context, i int) error {
	if i == 0 {
		g.dirs = map[int]string{}
		g.trials, g.rounds, g.puts, g.ckptBytes, g.ckptRecords = 0, 0, 0, 0, 0
	}
	g.seq++
	dir := filepath.Join(g.root, fmt.Sprintf("op%d", g.seq))
	g.dirs[i] = dir
	tr := g.e.tr.get()
	dc, err := cache.NewDir(filepath.Join(dir, "cells"))
	if err != nil {
		return err
	}
	tc := &timedCache{inner: dc, tr: &g.e.tr}
	c := cache.Instrument("dir", tc)
	for j, spec := range gridSpecs(g.e.seed, i, g.e.toy) {
		path := filepath.Join(dir, fmt.Sprintf("%d.ckpt", j))
		id := tr.begin(0, "checkpoint.open")
		cf, err := campaign.OpenCheckpointFile(path, spec)
		tr.end(id)
		if err != nil {
			return err
		}
		cfg := cf.Wire(campaign.Config{Workers: g.e.procs, Cache: c})
		record := cfg.OnResult
		cfg.OnResult = func(r campaign.JobResult) {
			id := tr.begin(0, "checkpoint.record")
			record(r)
			tr.end(id)
		}
		id = tr.begin(0, "campaign.runspec")
		out, err := campaign.RunSpec(ctx, spec, cfg)
		tr.end(id)
		id = tr.begin(0, "checkpoint.close")
		cerr := cf.Close()
		tr.end(id)
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		if out.Executed != out.Jobs {
			return fmt.Errorf("%s: %d of %d jobs executed on a cold cache", spec.Name, out.Executed, out.Jobs)
		}
		if err := checkCells(out); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		g.trials += int64(trialsOf(out))
		g.rounds += roundsOf(out)
		if tr != nil {
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			g.ckptBytes += st.Size()
			g.ckptRecords += int64(out.Jobs)
		}
	}
	g.puts += tc.puts.Load()
	return nil
}

func (g *grid) verify(context.Context) error { return nil }

func (g *grid) close() error { return os.RemoveAll(g.root) }

func (g *grid) layers(ctx context.Context, p *pass) (map[string]float64, error) {
	m := map[string]float64{
		"checkpoint.record_us":       1e3 * mean(durations(p.spans, "checkpoint.record")),
		"checkpoint.bytes_per_trial": float64(g.ckptBytes) / float64(g.ckptRecords),
		"cache.put_ms":               mean(durations(p.spans, "cache.put")),
		"cache.puts":                 float64(g.puts) / float64(p.ops),
		"core.rounds_per_s":          float64(g.rounds) / p.wall.Seconds(),
		"campaign.trials_per_s":      float64(g.trials) / p.wall.Seconds(),
	}
	specs := gridSpecs(g.e.seed, 0, g.e.toy)
	var err error
	if m["campaign.compile_ms"], err = medianMs(5, func() error {
		for _, s := range specs {
			if _, err := s.Compile(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	maxN := 0
	for _, s := range specs {
		for _, n := range s.Ns {
			maxN = max(maxN, n)
		}
	}
	m["tree.random_into_us"] = treeProbe(func(b *tree.Buf, src *rng.Source) error {
		tree.RandomInto(b, maxN, src)
		return nil
	})
	m["tree.leaves_into_us"] = treeProbe(func(b *tree.Buf, src *rng.Source) error {
		_, err := tree.RandomWithLeavesInto(b, maxN, 4, src)
		return err
	})

	st := newReplayStats()
	for i := 0; i < min(replayOps, p.ops); i++ {
		cells, err := cache.NewDir(filepath.Join(g.dirs[i], "cells"))
		if err != nil {
			return nil, err
		}
		for _, s := range gridSpecs(g.e.seed, i, g.e.toy) {
			if err := st.replay(s, cells); err != nil {
				return nil, err
			}
		}
	}
	for _, fam := range []string{"static-path", "two-phase-path", "k-leaves", "random-tree", "block-leader"} {
		a := st.fam[fam]
		if a == nil || a.calls == 0 {
			return nil, fmt.Errorf("replay saw no %s trial", fam)
		}
		m["adversary.next_us."+fam] = float64(a.next) / 1e3 / float64(a.calls)
	}
	m["adversary.share"] = float64(st.next) / float64(st.trial)
	m["core.step_us"] = float64(st.stepTime) / 1e3 / float64(st.stepRounds)
	m["core.rounds"] = float64(st.rounds)
	m["campaign.trial_ms.p50"] = median(st.trialMs)
	m["campaign.trial_ms.tail"], _ = tail(st.trialMs)
	return m, nil
}

// treeProbe times one tree generator at the grid's largest n: the median
// over batches of the time per call, in µs.
func treeProbe(gen func(*tree.Buf, *rng.Source) error) float64 {
	const batch = 200
	var b tree.Buf
	src := rng.New(7)
	var per []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if gen(&b, src) != nil {
				return 0
			}
		}
		per = append(per, float64(time.Since(t0))/1e3/batch)
	}
	return median(per)
}

// replayStats accumulates the replay of grid trials through core.Runner
// with each cell's adversary built by its family's NewReusable and
// wrapped in a timedAdversary.
type replayStats struct {
	fam         map[string]*famStats // at each family's largest n
	next, trial time.Duration
	stepTime    time.Duration // trial minus Next, at the largest n
	stepRounds  int64
	rounds      int64
	trialMs     []float64
	largestN    int
}

type famStats struct {
	n     int
	next  time.Duration
	calls int
}

func newReplayStats() *replayStats { return &replayStats{fam: map[string]*famStats{}} }

// replay runs every trial of spec again, from the sources Compile gives
// it, and checks each trial's rounds against the cell bytes the campaign
// stored in cells.
func (st *replayStats) replay(spec campaign.Spec, cells cache.Cache) error {
	jobs, err := spec.Compile()
	if err != nil {
		return err
	}
	cellJobs, err := spec.CellJobs()
	if err != nil {
		return err
	}
	families := map[string]campaign.Family{}
	for _, f := range campaign.Families() {
		families[f.Name] = f
	}
	type cellRun struct {
		family string
		n      int
		adv    *timedAdversary
		want   [][]campaign.Measurement
		next   int
	}
	byCell := map[string]*cellRun{}
	for _, cj := range cellJobs {
		data, ok, err := cells.Get(cj.Key)
		if err != nil || !ok {
			return fmt.Errorf("replay: cell %s not in the cache (%v)", cj.Cell, err)
		}
		var ent struct {
			Trials [][]campaign.Measurement `json:"trials"`
		}
		if err := json.Unmarshal(data, &ent); err != nil {
			return fmt.Errorf("replay: cell %s: %w", cj.Cell, err)
		}
		sc, n := cj.Spec.Scenarios[0], cj.Spec.Ns[0]
		f := families[sc.Adversary]
		if f.NewReusable == nil {
			return fmt.Errorf("replay: family %q has no reusable form", sc.Adversary)
		}
		adv, err := f.NewReusable(n, campaign.Params(sc.Params))
		if err != nil {
			return err
		}
		byCell[cj.Cell] = &cellRun{family: sc.Adversary, n: n, adv: &timedAdversary{inner: adv}, want: ent.Trials}
		st.largestN = max(st.largestN, n)
		if fs := st.fam[sc.Adversary]; fs == nil || fs.n < n {
			st.fam[sc.Adversary] = &famStats{n: n}
		}
	}
	runner := core.NewRunner()
	for _, j := range jobs {
		c := byCell[j.Cell]
		if c == nil || c.next >= len(c.want) {
			return fmt.Errorf("replay: job %d of cell %s has no stored trial", j.Index, j.Cell)
		}
		c.adv.Reset(j.Src)
		next0, calls0 := c.adv.next, c.adv.calls
		t0 := time.Now()
		rounds, err := runner.Run(c.n, c.adv, core.Broadcast)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", j.Cell, err)
		}
		if want := c.want[c.next]; len(want) != 1 || want[0].Value != float64(rounds) {
			return fmt.Errorf("replay: %s trial %d ran %d rounds, the campaign stored %v", j.Cell, c.next, rounds, want)
		}
		c.next++
		next := c.adv.next - next0
		st.next += next
		st.trial += d
		st.rounds += int64(rounds)
		st.trialMs = append(st.trialMs, float64(d)/1e6)
		if fs := st.fam[c.family]; fs.n == c.n {
			fs.next += next
			fs.calls += c.adv.calls - calls0
		}
		if c.n == st.largestN {
			st.stepTime += d - next
			st.stepRounds += int64(rounds)
		}
	}
	return nil
}
