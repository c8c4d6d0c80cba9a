package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
)

// EngineVersion names the simulation semantics that cell results depend
// on. It participates in every cache key and checkpoint hash, so bumping
// it (whenever engines, adversaries, or stream derivation change results)
// invalidates stale stored cells instead of silently serving them.
// Version 3 marks spec schema v2: cell identities hash canonicalized
// scenario parameters instead of the old closed adversary/k form.
const EngineVersion = "dyntreecast-engine/3"

// SpecVersion is the current spec schema version: the scenario form.
// Specs with Version 0 or 1 may use the legacy adversaries/ks fields,
// which Canonical converts into scenarios.
const SpecVersion = 2

// Spec declaratively describes a campaign: the cross product of
// Scenarios × Ns × Trials, run toward Goal, seeded by Seed. A Spec plus
// its seed fully determines the campaign's Outcome, independent of
// worker count.
//
// Two schema forms are accepted (the Version field selects; see
// Canonical):
//
//   - scenario form (Version 2, or 0 with Scenarios set): each Scenario
//     names a registered adversary family with a JSON parameter
//     assignment; array-valued params expand as axes;
//   - legacy form (Version 1, or 0 with Adversaries set): a list of
//     family names plus one shared Ks axis consumed by the families
//     declaring a required "k" param. Canonical rewrites it into
//     scenarios, so both spellings of a grid share cache keys,
//     checkpoints, and artifacts byte for byte.
type Spec struct {
	Version     int        `json:"version,omitempty"`
	Name        string     `json:"name,omitempty"`
	Scenarios   []Scenario `json:"scenarios,omitempty"`
	Adversaries []string   `json:"adversaries,omitempty"` // legacy form
	Ks          []int      `json:"ks,omitempty"`          // legacy form's shared k axis
	Ns          []int      `json:"ns"`
	Trials      int        `json:"trials"`
	Seed        uint64     `json:"seed"`
	Goal        string     `json:"goal,omitempty"`       // "broadcast" (default) or "gossip"
	MaxRounds   int        `json:"max_rounds,omitempty"` // 0 = the engine default n²+1
}

// CellKey is the aggregation key of one simple grid point, shared with
// the experiment harness's hand-built grids. k < 0 means no k axis. Cells
// of compiled scenario specs follow the same shape with every declared
// param appended ("k-leaves/n=16/k=2").
func CellKey(adv string, n, k int) string {
	if k < 0 {
		return fmt.Sprintf("%s/n=%d", adv, n)
	}
	return fmt.Sprintf("%s/n=%d/k=%d", adv, n, k)
}

// Canonical validates the spec and returns its canonical form: Version
// set to SpecVersion, the legacy adversaries/ks fields rewritten into
// scenarios, every scenario ground (axes expanded in declaration order,
// defaults filled, values normalized). Canonicalization is idempotent,
// and every equivalent spelling of a grid — legacy or scenario, axis
// list or expanded — converges to the same canonical spec, which is why
// they share cache keys, checkpoint hashes, and artifact bytes.
func (s *Spec) Canonical() (Spec, error) {
	canon, _, err := s.canonical()
	return canon, err
}

func (s *Spec) canonical() (Spec, []groundScenario, error) {
	scenarios, err := s.scenarioForm()
	if err != nil {
		return Spec{}, nil, err
	}
	var grounds []groundScenario
	for _, sc := range scenarios {
		g, err := expandScenario(sc)
		if err != nil {
			return Spec{}, nil, err
		}
		grounds = append(grounds, g...)
	}
	if len(s.Ns) == 0 {
		return Spec{}, nil, fmt.Errorf("campaign: spec needs at least one n")
	}
	for _, n := range s.Ns {
		if n < 1 {
			return Spec{}, nil, fmt.Errorf("campaign: n must be >= 1, got %d", n)
		}
	}
	if s.Trials < 1 {
		return Spec{}, nil, fmt.Errorf("campaign: trials must be >= 1, got %d", s.Trials)
	}
	switch s.Goal {
	case "", "broadcast", "gossip":
	default:
		return Spec{}, nil, fmt.Errorf("campaign: unknown goal %q (want broadcast or gossip)", s.Goal)
	}
	if s.MaxRounds < 0 {
		return Spec{}, nil, fmt.Errorf("campaign: max_rounds must be >= 0, got %d", s.MaxRounds)
	}
	canon := *s
	canon.Version = SpecVersion
	canon.Adversaries, canon.Ks = nil, nil
	canon.Scenarios = make([]Scenario, len(grounds))
	for i, g := range grounds {
		canon.Scenarios[i] = g.scenario()
	}
	return canon, grounds, nil
}

// scenarioForm resolves which schema form the spec uses and returns its
// scenarios (converting the legacy fields if needed).
func (s *Spec) scenarioForm() ([]Scenario, error) {
	switch {
	case s.Version < 0 || s.Version > SpecVersion:
		return nil, fmt.Errorf("campaign: unsupported spec version %d (this engine speaks <= %d)", s.Version, SpecVersion)
	case s.Version == 1 && len(s.Scenarios) > 0:
		return nil, fmt.Errorf("campaign: spec version 1 cannot carry scenarios (use version 2 or drop the version field)")
	case s.Version == SpecVersion && (len(s.Adversaries) > 0 || len(s.Ks) > 0):
		return nil, fmt.Errorf("campaign: spec version 2 uses scenarios, not adversaries/ks")
	case len(s.Scenarios) > 0 && (len(s.Adversaries) > 0 || len(s.Ks) > 0):
		return nil, fmt.Errorf("campaign: spec mixes scenarios with legacy adversaries/ks; use one form")
	case len(s.Scenarios) > 0:
		return s.Scenarios, nil
	case len(s.Adversaries) == 0:
		return nil, fmt.Errorf("campaign: spec needs at least one scenario (or a legacy adversaries list)")
	}
	// Legacy form: one scenario per name; families that require a "k"
	// param receive the shared Ks axis.
	for _, k := range s.Ks {
		if k < 1 {
			return nil, fmt.Errorf("campaign: k must be >= 1, got %d", k)
		}
	}
	scenarios := make([]Scenario, 0, len(s.Adversaries))
	ksAxis := make([]any, len(s.Ks))
	for i, k := range s.Ks {
		ksAxis[i] = k
	}
	for _, name := range s.Adversaries {
		f, ok := familyByName(name)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown adversary %q (known: %v)", name, Adversaries())
		}
		if requiresK(f) {
			if len(ksAxis) == 0 {
				return nil, fmt.Errorf("campaign: spec names the k-parameterized adversary %q but has no ks", name)
			}
			scenarios = append(scenarios, Scenario{Adversary: name, Params: map[string]any{"k": ksAxis}})
			continue
		}
		if missing := requiredParams(f); len(missing) > 0 {
			return nil, fmt.Errorf("campaign: adversary %q requires params %v; use the scenario form", name, missing)
		}
		scenarios = append(scenarios, Scenario{Adversary: name})
	}
	return scenarios, nil
}

// requiresK reports whether the family consumes the legacy shared Ks
// axis: it declares a required param named "k".
func requiresK(f Family) bool {
	for _, p := range f.Params {
		if p.Name == "k" && p.Default == nil {
			return true
		}
	}
	return false
}

// requiredParams lists the family's params with no default, other than
// the legacy-bridged "k".
func requiredParams(f Family) []string {
	var out []string
	for _, p := range f.Params {
		if p.Default == nil && p.Name != "k" {
			out = append(out, p.Name)
		}
	}
	return out
}

// Validate reports the first structural problem of the spec, or nil.
func (s *Spec) Validate() error {
	_, err := s.Canonical()
	return err
}

func (s *Spec) goal() core.Goal {
	if s.Goal == "gossip" {
		return core.Gossip
	}
	return core.Broadcast
}

// goalName returns the normalized goal for identity strings.
func (s *Spec) goalName() string {
	if s.Goal == "" {
		return "broadcast"
	}
	return s.Goal
}

// cellIdentity is the canonical string of everything that determines one
// cell's trial results: the engine version, the campaign seed, the goal
// and round budget, and the cell coordinates — the ground scenario's
// canonical form (family name + sorted-key params JSON) and n. It
// deliberately excludes the trial count — trial streams are split
// serially from the cell root, so the trials of a smaller campaign are a
// prefix of a larger one's.
func (s *Spec) cellIdentity(g groundScenario, n int) string {
	return fmt.Sprintf("%s|seed=%d|goal=%s|maxr=%d|scenario=%s|n=%d",
		EngineVersion, s.Seed, s.goalName(), s.MaxRounds, g.canon, n)
}

// cellSeed derives the root seed of one cell's random streams by hashing
// the cell identity. Streams therefore depend only on the cell and the
// campaign seed — not on where the cell sits in the grid — which is what
// makes content-addressed caching of cells sound: the same cell in two
// different specs (same seed) produces the same results.
func (s *Spec) cellSeed(g groundScenario, n int) uint64 {
	sum := sha256.Sum256([]byte(s.cellIdentity(g, n)))
	return binary.BigEndian.Uint64(sum[:8])
}

// cellCacheKey is the content address of one fully-run cell: the cell
// identity plus the trial count, hashed. See DESIGN.md §3b.
func (s *Spec) cellCacheKey(g groundScenario, n int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|trials=%d", s.cellIdentity(g, n), s.Trials)))
	return hex.EncodeToString(sum[:])
}

// cellPlan records one grid cell of a planned spec: its coordinates, its
// content address, and where its jobs sit in the spec's job order.
// Planning allocates nothing per trial; a cell's jobs are built
// (appendJobs) only when the cell is to run. Scenario and N are the
// cell's canonical coordinates, kept so the remote layer can rebuild the
// cell as a self-contained single-cell spec (see cellJob).
type cellPlan struct {
	Cell     string   // display key (groundScenario.cellName)
	Key      string   // content address (cellCacheKey)
	Scenario Scenario // canonical ground scenario of the cell
	N        int      // the cell's n coordinate
	First    int      // job index of the cell's first trial
	Trials   int      // trial count: the cell's jobs are First..First+Trials-1
	ground   groundScenario
}

// Compile validates the spec and expands its grid into jobs. The grid is
// walked in a fixed nested order (scenario, n, trial), scenarios in
// canonical order. Each cell's random streams are derived
// content-addressed — a root source seeded by a hash of (engine version,
// seed, goal, round budget, canonical scenario, n), split serially in
// trial order — so every cell's results are a pure function of the
// spec's seed and the cell's own coordinates, independent of what else
// the grid contains. Grid points the family reports infeasible (e.g.
// k > n−1 for the restricted families) are skipped.
func (s *Spec) Compile() ([]Job, error) {
	canon, cells, total, err := s.plan()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, total)
	for i := range cells {
		jobs = cells[i].appendJobs(&canon, jobs)
	}
	return jobs, nil
}

// JobCount returns the number of jobs the spec compiles to, one per
// trial of every feasible cell, without building any.
func (s *Spec) JobCount() (int, error) {
	_, _, total, err := s.plan()
	return total, err
}

// plan validates the spec and lays out its grid in Compile's order: the
// canonical spec, its feasible cells, and the total job count.
func (s *Spec) plan() (Spec, []cellPlan, int, error) {
	canon, grounds, err := s.canonical()
	if err != nil {
		return Spec{}, nil, 0, err
	}
	var cells []cellPlan
	total := 0
	for _, g := range grounds {
		for _, n := range canon.Ns {
			if !g.feasible(n) {
				continue
			}
			cells = append(cells, cellPlan{
				Cell: g.cellName(n), Key: canon.cellCacheKey(g, n), Scenario: g.scenario(), N: n,
				First: total, Trials: canon.Trials, ground: g,
			})
			total += canon.Trials
		}
	}
	if total == 0 {
		return Spec{}, nil, 0, fmt.Errorf("campaign: spec compiles to an empty grid (every scenario infeasible?)")
	}
	return canon, cells, total, nil
}

// appendJobs appends the cell's jobs to dst in trial order. Each owns a
// source split serially from the cell's content-addressed root, and all
// share the cell's runCellTrial closure.
func (c *cellPlan) appendJobs(canon *Spec, dst []Job) []Job {
	root := rng.New(canon.cellSeed(c.ground, c.N))
	run := runCellTrial(c.ground, c.N, c.Cell, canon.goal(), canon.MaxRounds)
	for t := 0; t < c.Trials; t++ {
		dst = append(dst, Job{Index: c.First + t, Cell: c.Cell, Src: root.Split(), Run: run})
	}
	return dst
}

// runCellTrial is the closure of every compiled grid job: the trial runs
// on the worker's pooled Runner against the cell's one adversary, built
// by the family's NewReusable on the worker's first trial of the cell and
// Reset to each trial's source (Arena.AdversaryFor).
func runCellTrial(g groundScenario, n int, cell string, goal core.Goal, maxRounds int) func(context.Context, *rng.Source, *Arena) ([]Measurement, error) {
	return func(_ context.Context, src *rng.Source, a *Arena) ([]Measurement, error) {
		adv, err := a.AdversaryFor(cell, src, func() (ReusableAdversary, error) {
			return g.family.NewReusable(n, g.params)
		})
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", cell, err)
		}
		a.Runner.MaxRounds = maxRounds
		rounds, err := a.Runner.Run(n, adv, goal)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", cell, err)
		}
		return []Measurement{{Cell: cell, Value: float64(rounds)}}, nil
	}
}

// Outcome is the aggregated, machine-diffable result of a campaign run.
// It deliberately carries no timestamps or host details: two runs of the
// same spec produce byte-identical JSON regardless of worker count. The
// embedded Spec is the canonical form, so every equivalent spelling of a
// grid — legacy or scenario — emits identical artifact bytes.
type Outcome struct {
	Spec      Spec        `json:"spec"`
	Jobs      int         `json:"jobs"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Cells     []CellStats `json:"cells"`
	Errors    []string    `json:"errors,omitempty"`

	// Job-accounting fields, populated by RunSpec and excluded from the
	// JSON artifact so that warm-cache and resumed runs stay byte-identical
	// to cold ones. Executed + CacheHits + Reused == Completed + Failed
	// for an uncancelled run.
	Executed  int `json:"-"` // jobs actually run by the worker pool
	CacheHits int `json:"-"` // jobs satisfied from Config.Cache
	Reused    int `json:"-"` // jobs satisfied from Config.Completed (checkpoint)
}

// observe counts one job result into the outcome and pools its
// measurements. Skipped jobs count nowhere; failed jobs contribute
// their error and no measurements.
func (o *Outcome) observe(p *pool, r JobResult) {
	switch {
	case r.Skipped:
	case r.Err != nil:
		o.Failed++
		o.Errors = append(o.Errors, r.Err.Error())
	default:
		o.Completed++
		for _, m := range r.Measurements {
			p.add(m.Cell, m.Value)
		}
	}
}

// Where RunSpec reads a cell that gets no jobs.
const (
	fromCheckpoint = -1 // every trial is in Config.Completed
	fromCache      = -2 // the cell's cache entry decoded
)

// RunSpec plans and executes the spec on cfg's worker pool and
// aggregates per-cell statistics. Job failures do not abort the campaign:
// they are counted and recorded (in job-index order) in Outcome.Errors.
// The returned error is non-nil only for an invalid spec, a cache backend
// failure, or a cancelled context; on cancellation the partial Outcome is
// still returned.
//
// Before any job exists, each cell is given one source. A cell whose
// trials cfg.Completed (checkpointed results) all holds is read from
// there; otherwise, when cfg.Cache is set, a cell whose content address
// holds a well-formed entry is read from the cache — trials the
// checkpoint also holds still come from the checkpoint. Only the
// remaining cells get jobs, and each of those computed fresh and fully
// successful is stored back. Cost therefore follows the cells that run,
// not the grid's trials. The aggregated Outcome — and its JSON artifact —
// is byte-identical to an uncached, uninterrupted run, because every
// source is pooled in job-index order.
func RunSpec(ctx context.Context, spec Spec, cfg Config) (*Outcome, error) {
	canon, cells, total, err := spec.plan()
	if err != nil {
		return nil, err
	}
	mRunsStarted.Inc()
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	// Only in-range checkpoint entries count as reused: the run and the
	// pooling below ignore the rest.
	reused := 0
	for idx := range cfg.Completed {
		if idx >= 0 && idx < total {
			reused++
		}
	}
	// pos[i] is the position of cell i's first job in jobs, or where the
	// cell is read from when it gets none.
	pos := make([]int, len(cells))
	hits := make([]CellEntry, len(cells))
	var jobs []Job
	var run []cellPlan
	for i := range cells {
		c := &cells[i]
		if covered(cfg.Completed, c.First, c.Trials) {
			pos[i] = fromCheckpoint
			continue
		}
		if cfg.Cache != nil {
			ent, ok, err := readCell(cfg.Cache, c)
			if err != nil {
				return nil, err
			}
			if ok {
				pos[i], hits[i] = fromCache, ent
				continue
			}
		}
		pos[i] = len(jobs)
		jobs = c.appendJobs(&canon, jobs)
		run = append(run, *c)
	}
	runCfg := cfg
	if cfg.Progress != nil {
		// Cells without jobs were satisfied up front; progress still
		// counts over the whole grid.
		ahead := total - len(jobs)
		runCfg.Progress = func(done, _ int) { cfg.Progress(done+ahead, total) }
	}
	var results []JobResult
	var runErr error
	if cfg.Remote != nil {
		results, runErr = runRemote(ctx, jobs, run, canon, runCfg)
	} else {
		results, runErr = Run(ctx, jobs, runCfg)
	}
	if cfg.Cache != nil && runErr == nil {
		for i := range cells {
			if pos[i] >= 0 {
				if err := storeCell(cfg.Cache, &cells[i], results[pos[i]:pos[i]+cells[i].Trials]); err != nil {
					return nil, err
				}
			}
		}
	}
	out := &Outcome{Spec: canon, Jobs: total, Reused: reused}
	var p pool
	var buf []Measurement
	for i := range cells {
		c := &cells[i]
		switch {
		case pos[i] >= 0:
			for _, r := range results[pos[i] : pos[i]+c.Trials] {
				out.observe(&p, r)
			}
		case pos[i] == fromCache && len(cfg.Completed) == 0:
			p.addEntry(&hits[i])
			out.Completed += c.Trials
			out.CacheHits += c.Trials
		default:
			for t := 0; t < c.Trials; t++ {
				if r, ok := cfg.Completed[c.First+t]; ok {
					r.Index, r.Skipped = c.First+t, false
					out.observe(&p, r)
					continue
				}
				buf = hits[i].trial(t, buf[:0])
				out.observe(&p, JobResult{Index: c.First + t, Measurements: buf})
				out.CacheHits++
			}
		}
	}
	out.Cells = p.stats()
	out.Executed = out.Completed + out.Failed - out.CacheHits - reused
	return out, runErr
}

// readCell looks cell c up in the cache. An entry that does not decode
// to exactly c's trial count — truncated, torn, or foreign — is a miss,
// never an error: the cell is recomputed (the determinism contract makes
// the recomputation byte-identical to what the entry should have held).
// Backends that can delete also heal — the bad bytes are evicted
// immediately instead of being served to readers that never Put (the
// warehouse query layer) until some campaign overwrites them.
func readCell(cc cache.Cache, c *cellPlan) (CellEntry, bool, error) {
	data, ok, err := cc.Get(c.Key)
	if err != nil {
		return CellEntry{}, false, fmt.Errorf("campaign: cache get %s: %w", c.Cell, err)
	}
	if !ok {
		return CellEntry{}, false, nil
	}
	if ent, err := DecodeCellEntry(data); err == nil && ent.Trials() == c.Trials {
		return ent, true, nil
	}
	if d, ok := cc.(cache.Deleter); ok {
		if err := d.Delete(c.Key); err != nil {
			return CellEntry{}, false, fmt.Errorf("campaign: cache delete %s: %w", c.Cell, err)
		}
	}
	return CellEntry{}, false, nil
}

// storeCell puts a freshly run cell into the cache, unless one of its
// trials failed or was skipped.
func storeCell(cc cache.Cache, c *cellPlan, results []JobResult) error {
	trials := make([][]Measurement, len(results))
	for t, r := range results {
		if r.Skipped || r.Err != nil {
			return nil
		}
		trials[t] = r.Measurements
	}
	data, err := encodeCellEntry(c.Cell, trials)
	if err != nil {
		return fmt.Errorf("campaign: encoding cache entry %s: %w", c.Cell, err)
	}
	if err := cc.Put(c.Key, data); err != nil {
		return fmt.Errorf("campaign: cache put %s: %w", c.Cell, err)
	}
	return nil
}

// covered reports whether completed holds every job index in
// [first, first+n).
func covered(completed map[int]JobResult, first, n int) bool {
	if len(completed) < n {
		return false
	}
	for idx := first; idx < first+n; idx++ {
		if _, ok := completed[idx]; !ok {
			return false
		}
	}
	return true
}

// LoadSpec reads a JSON Spec from r, rejecting unknown fields so typos in
// hand-written campaign files fail loudly. Both schema forms are
// accepted; call Canonical (or any of the run paths, which do) to
// normalize.
func LoadSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	return spec, nil
}

// LoadSpecFile reads a JSON Spec from path ("-" means stdin).
func LoadSpecFile(path string) (Spec, error) {
	if path == "-" {
		return LoadSpec(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: opening spec: %w", err)
	}
	defer f.Close()
	return LoadSpec(f)
}
