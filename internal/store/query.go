package store

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dyntreecast/internal/gamesolver"
)

// ErrNotFound reports a query naming a campaign the warehouse has not
// ingested.
var ErrNotFound = errors.New("store: campaign not found")

// Row is one queryable warehouse cell: a campaign's measurement of one
// grid point, with its coordinates, content address, and stats.
type Row struct {
	Campaign  string         `json:"campaign"`
	Cell      string         `json:"cell"`
	Adversary string         `json:"adversary"`
	Params    map[string]any `json:"params,omitempty"`
	N         int            `json:"n"`
	Goal      string         `json:"goal"`
	Engine    string         `json:"engine,omitempty"`
	Key       string         `json:"key,omitempty"` // content address; "" = stats-only backfill
	Trials    int            `json:"trials"`
	Count     int            `json:"count"`
	Mean      float64        `json:"mean"`
	StdDev    float64        `json:"stddev"`
	Min       float64        `json:"min"`
	Max       float64        `json:"max"`
	P50       float64        `json:"p50"`
	P99       float64        `json:"p99"`
}

// sortKey is the row's position in cursor order. Campaign ids cannot
// contain NUL (checkID), so the pair ordering is exactly the string
// ordering of the joined key.
func (r Row) sortKey() string { return r.Campaign + "\x00" + r.Cell }

// indexRow is one row of the warehouse index: a manifest and one of its
// cell records, both shared, never copied.
type indexRow struct {
	m *manifest
	c *manifestCell
}

// rowsOf returns m's index rows, in m's cell order.
func rowsOf(m *manifest) []indexRow {
	rows := make([]indexRow, len(m.Cells))
	for i, c := range m.Cells {
		rows[i] = indexRow{m, c}
	}
	return rows
}

// compareRows orders index rows by (campaign, cell), the cursor order,
// without building their sort keys.
func compareRows(a, b indexRow) int {
	if c := strings.Compare(a.m.ID, b.m.ID); c != 0 {
		return c
	}
	return strings.Compare(a.c.Cell, b.c.Cell)
}

// row materializes the queryable Row.
func (r indexRow) row() Row {
	m, c := r.m, r.c
	return Row{
		Campaign: m.ID, Cell: c.Cell, Adversary: c.Adversary, Params: c.Params,
		N: c.N, Goal: m.Goal, Engine: m.Engine, Key: c.Key, Trials: c.Trials,
		Count: c.Stats.Count, Mean: c.Stats.Mean, StdDev: c.Stats.StdDev,
		Min: c.Stats.Min, Max: c.Stats.Max, P50: c.Stats.P50, P99: c.Stats.P99,
	}
}

// Filter selects warehouse rows. Zero fields do not constrain; N, NMin
// and NMax compose (an exact N wins).
type Filter struct {
	Campaign  string // exact campaign id
	Adversary string // exact scenario family name
	Goal      string // "broadcast" or "gossip"
	N         int    // exact n (0 = any)
	NMin      int    // inclusive lower bound on n (0 = none)
	NMax      int    // inclusive upper bound on n (0 = none)
	Limit     int    // page size; 0 = DefaultLimit, capped at MaxLimit
	Cursor    string // opaque resume token from a previous Page
}

// Pagination bounds.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

func (f Filter) match(r Row) bool {
	if f.Campaign != "" && r.Campaign != f.Campaign {
		return false
	}
	if f.Adversary != "" && r.Adversary != f.Adversary {
		return false
	}
	if f.Goal != "" && r.Goal != f.Goal {
		return false
	}
	if f.N != 0 && r.N != f.N {
		return false
	}
	if f.NMin != 0 && r.N < f.NMin {
		return false
	}
	if f.NMax != 0 && r.N > f.NMax {
		return false
	}
	return true
}

// Page is one page of query results. NextCursor is non-empty exactly
// when more rows match beyond this page; feeding it back into
// Filter.Cursor resumes after the page's last row.
type Page struct {
	Rows       []Row  `json:"rows"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// encodeCursor and decodeCursor wrap the resume position (the sort key
// of the last delivered row) in URL-safe base64, keeping it opaque and
// query-string clean.
func encodeCursor(sortKey string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(sortKey))
}

func decodeCursor(c string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(c)
	if err != nil {
		return "", fmt.Errorf("store: bad cursor: %w", err)
	}
	return string(raw), nil
}

// Query returns one page of rows matching f, in (campaign, cell) order.
// Cursors are stable under concurrent ingest: the index is ordered by an
// ingest-independent sort key, so a page walk started before an ingest
// neither duplicates nor skips any row that existed when it started —
// newly ingested rows simply appear (or not) depending on whether they
// sort after the walker's position.
func (s *Store) Query(f Filter) (Page, error) {
	start := time.Now()
	defer func() { hQuery.Observe(time.Since(start).Seconds()) }()

	after := ""
	if f.Cursor != "" {
		var err error
		after, err = decodeCursor(f.Cursor)
		if err != nil {
			return Page{}, err
		}
	}
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > MaxLimit {
		limit = MaxLimit
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if f.Campaign != "" {
		if _, ok := s.manifests[f.Campaign]; !ok {
			return Page{}, fmt.Errorf("%w: %s", ErrNotFound, f.Campaign)
		}
	}
	// Binary-search past the cursor, then scan.
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].row().sortKey() > after })
	page := Page{Rows: []Row{}}
	for ; i < len(s.rows); i++ {
		r := s.rows[i].row()
		if !f.match(r) {
			continue
		}
		if len(page.Rows) == limit {
			page.NextCursor = encodeCursor(page.Rows[limit-1].sortKey())
			break
		}
		page.Rows = append(page.Rows, r)
	}
	return page, nil
}

// DiffEntry is one differing cell of a campaign diff.
type DiffEntry struct {
	Cell string `json:"cell"`
	// Status: "changed" (both campaigns have the cell, different
	// content), "only_a", or "only_b".
	Status string `json:"status"`
	A      *Row   `json:"a,omitempty"`
	B      *Row   `json:"b,omitempty"`
}

// DiffResult is the content-address diff of two campaigns.
type DiffResult struct {
	A         string      `json:"a"`
	B         string      `json:"b"`
	Identical int         `json:"identical"` // cells elided as same-content
	Entries   []DiffEntry `json:"entries"`
}

// Diff compares two ingested campaigns cell by cell. Cells present in
// both with the same content address are elided (counted in Identical) —
// the determinism contract makes equal addresses equal bytes, so there
// is nothing to show. Stats-only rows (no address) fall back to stats
// equality. A campaign diffed against itself, or against a cache-warm
// re-run of the same spec, is therefore empty.
func (s *Store) Diff(a, b string) (DiffResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ma, ok := s.manifests[a]
	if !ok {
		return DiffResult{}, fmt.Errorf("%w: %s", ErrNotFound, a)
	}
	mb, ok := s.manifests[b]
	if !ok {
		return DiffResult{}, fmt.Errorf("%w: %s", ErrNotFound, b)
	}
	rowOf := func(m *manifest, c *manifestCell) *Row {
		r := indexRow{m, c}.row()
		return &r
	}
	cellsB := make(map[string]*manifestCell, len(mb.Cells))
	for _, c := range mb.Cells {
		cellsB[c.Cell] = c
	}
	res := DiffResult{A: a, B: b, Entries: []DiffEntry{}}
	for _, ca := range ma.Cells {
		cb, ok := cellsB[ca.Cell]
		if !ok {
			res.Entries = append(res.Entries, DiffEntry{Cell: ca.Cell, Status: "only_a", A: rowOf(ma, ca)})
			continue
		}
		delete(cellsB, ca.Cell)
		same := ca.Key != "" && ca.Key == cb.Key
		if ca.Key == "" || cb.Key == "" {
			// Stats-only side(s): compare the numbers instead.
			same = ca.Stats == cb.Stats && ca.Trials == cb.Trials
		}
		if same {
			res.Identical++
			continue
		}
		res.Entries = append(res.Entries, DiffEntry{Cell: ca.Cell, Status: "changed", A: rowOf(ma, ca), B: rowOf(mb, cb)})
	}
	// Remaining B cells have no A counterpart; report in a stable order.
	var onlyB []string
	for cell := range cellsB {
		onlyB = append(onlyB, cell)
	}
	sort.Strings(onlyB)
	for _, cell := range onlyB {
		cb := cellsB[cell]
		res.Entries = append(res.Entries, DiffEntry{Cell: cell, Status: "only_b", B: rowOf(mb, cb)})
	}
	return res, nil
}

// CurveFilter selects bound curves. Zero fields do not constrain.
type CurveFilter struct {
	Adversary string // exact scenario family
	Goal      string // "broadcast" or "gossip"
	Campaign  string // restrict the measured series to one campaign
}

// CurvePoint is one n of a bound curve: every campaign's measured value
// at that n joined against the exact game value where the solver has it.
type CurvePoint struct {
	N        int                     `json:"n"`
	Measured map[string]CurveMeasure `json:"measured"` // by campaign id
	Exact    *int                    `json:"exact,omitempty"`
}

// CurveMeasure is one campaign's measurement at one curve point.
type CurveMeasure struct {
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Trials int     `json:"trials"`
}

// Curve is one scenario's bound curve across n, possibly spanning
// campaigns.
type Curve struct {
	Scenario string       `json:"scenario"` // family plus params ("k-leaves k=2")
	Goal     string       `json:"goal"`
	Points   []CurvePoint `json:"points"`
}

// exactValue returns the exact adversarial broadcast value for n, or
// nil where no value is available without unbounded work. Values are
// memoized per store. Three tiers:
//
//   - n ≤ gamesolver.MaxN: solved implicitly (milliseconds); the result
//     is also persisted to the warehouse's solvetables/ dir best-effort,
//     so the next process start skips even that.
//   - gamesolver.MaxN < n ≤ gamesolver.HardMaxN: served only when a
//     solve table for this n (written by cmd/exact-solver -table, or a
//     previous tier-1 persist) already holds the root value — a curves
//     query never triggers an hours-long solve. Partial tables (an
//     interrupted solve's autosave) are loaded but do not answer until
//     the root state is present.
//   - otherwise: nil. Only the broadcast goal has a solver.
func (s *Store) exactValue(goal string, n int) *int {
	if goal != "broadcast" || n < 2 || n > gamesolver.HardMaxN {
		return nil
	}
	s.exactMu.Lock()
	defer s.exactMu.Unlock()
	if v, ok := s.exactVals[n]; ok {
		return &v
	}
	path := s.SolveTablePath(n)
	if n <= gamesolver.MaxN {
		solver, err := gamesolver.New(n)
		if err != nil {
			return nil
		}
		_, _ = solver.LoadTable(path) // pre-warm if a table is already there
		v := solver.Value()
		s.exactVals[n] = v
		if _, err := os.Stat(path); err != nil {
			_ = solver.SaveTable(path) // best-effort persist for next open
		}
		return &v
	}
	// Big n: probe the header first — it is a cheap read and rules out
	// missing or incompatible tables before the solver's eager
	// permutation tables are built.
	if _, err := gamesolver.ReadTableInfo(path); err != nil {
		return nil
	}
	solver, err := gamesolver.New(n, gamesolver.WithMaxN(n))
	if err != nil {
		return nil
	}
	if _, err := solver.LoadTable(path); err != nil {
		return nil
	}
	v, ok := solver.CachedValue()
	if !ok {
		return nil
	}
	s.exactVals[n] = v
	return &v
}

// Curves joins the warehouse's measured values against exact gamesolver
// values: one curve per (scenario, goal), one point per n, each point
// carrying every matching campaign's measurement plus the exact value
// where the solver covers that n — implicitly for broadcast with
// 2 ≤ n ≤ gamesolver.MaxN, and via warehoused solve tables up to
// gamesolver.HardMaxN (see exactValue). This is the cross-campaign
// "how tight are the measured bounds" view.
func (s *Store) Curves(f CurveFilter) []Curve {
	s.mu.RLock()
	type pointKey struct {
		scenario, goal string
		n              int
	}
	points := make(map[pointKey]map[string]CurveMeasure)
	for _, ir := range s.rows {
		r := ir.row()
		if f.Adversary != "" && r.Adversary != f.Adversary {
			continue
		}
		if f.Goal != "" && r.Goal != f.Goal {
			continue
		}
		if f.Campaign != "" && r.Campaign != f.Campaign {
			continue
		}
		k := pointKey{scenarioLabel(r), r.Goal, r.N}
		if points[k] == nil {
			points[k] = make(map[string]CurveMeasure)
		}
		points[k][r.Campaign] = CurveMeasure{Mean: r.Mean, Max: r.Max, Trials: r.Trials}
	}
	s.mu.RUnlock()

	byCurve := make(map[string]*Curve)
	var order []string
	for k, measured := range points {
		ck := k.scenario + "\x00" + k.goal
		c := byCurve[ck]
		if c == nil {
			c = &Curve{Scenario: k.scenario, Goal: k.goal}
			byCurve[ck] = c
			order = append(order, ck)
		}
		c.Points = append(c.Points, CurvePoint{N: k.n, Measured: measured, Exact: s.exactValue(k.goal, k.n)})
	}
	sort.Strings(order)
	out := make([]Curve, 0, len(byCurve))
	for _, ck := range order {
		c := byCurve[ck]
		sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].N < c.Points[j].N })
		out = append(out, *c)
	}
	return out
}

// scenarioLabel renders a row's scenario coordinates ("k-leaves k=2") for
// curve grouping, params in sorted key order.
func scenarioLabel(r Row) string {
	if len(r.Params) == 0 {
		return r.Adversary
	}
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{r.Adversary}
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, r.Params[k]))
	}
	return strings.Join(parts, " ")
}
