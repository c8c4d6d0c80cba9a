package campaign

import "dyntreecast/internal/stats"

// CellStats summarizes every measurement that landed in one cell:
// count/mean/min/max plus the tail percentiles the sweep tables report.
type CellStats struct {
	Cell   string  `json:"cell"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// Aggregate pools the measurements of successful jobs by cell and
// summarizes each cell through internal/stats. Results are walked in
// job-index order and cells are emitted in first-appearance order, so the
// output is independent of execution order. Failed and skipped jobs
// contribute nothing.
func Aggregate(results []JobResult) []CellStats {
	var p pool
	for _, r := range results {
		if r.Err != nil || r.Skipped {
			continue
		}
		for _, m := range r.Measurements {
			p.add(m.Cell, m.Value)
		}
	}
	return p.stats()
}

// CellStatsOf summarizes one cell's values, given in observation order:
// the numbers Aggregate reports for a cell that pooled exactly xs.
func CellStatsOf(cell string, xs []float64) CellStats {
	sorted := stats.Sorted(xs)
	s := stats.SummarizeSorted(xs, sorted)
	return CellStats{
		Cell:   cell,
		Count:  s.Count,
		Mean:   s.Mean,
		StdDev: s.StdDev,
		Min:    s.Min,
		Max:    s.Max,
		P50:    stats.PercentileSorted(sorted, 50),
		P99:    stats.PercentileSorted(sorted, 99),
	}
}

// pool gathers measurement values by cell, in observation order, and
// reports the cells in first-appearance order.
type pool struct {
	at    map[string]int // cell → its index in cells and xs
	cells []string
	xs    [][]float64
}

// slot returns the index of cell, registering it on first sight.
func (p *pool) slot(cell string) int {
	if n := len(p.cells); n > 0 && p.cells[n-1] == cell {
		return n - 1 // the newest cell again: the common run of one cell
	}
	i, ok := p.at[cell]
	if !ok {
		if p.at == nil {
			p.at = make(map[string]int)
		}
		i = len(p.cells)
		p.at[cell] = i
		p.cells = append(p.cells, cell)
		p.xs = append(p.xs, nil)
	}
	return i
}

// add pools one value.
func (p *pool) add(cell string, v float64) {
	i := p.slot(cell)
	p.xs[i] = append(p.xs[i], v)
}

// addEntry pools every measurement of a decoded cache entry. When all of
// them name the entry's cell, the values join the pool as one slice,
// shared with the entry while the cell holds nothing else: capped at
// its length, it is copied before any later value lands.
func (p *pool) addEntry(e *CellEntry) {
	if e.names != nil {
		for j, v := range e.values {
			p.add(e.names[j], v)
		}
		return
	}
	if len(e.values) == 0 {
		return
	}
	i := p.slot(e.Cell)
	if p.xs[i] == nil {
		p.xs[i] = e.values[:len(e.values):len(e.values)]
		return
	}
	p.xs[i] = append(p.xs[i], e.values...)
}

// stats summarizes every pooled cell.
func (p *pool) stats() []CellStats {
	out := make([]CellStats, len(p.cells))
	for i, cell := range p.cells {
		out[i] = CellStatsOf(cell, p.xs[i])
	}
	return out
}

// CellByKey returns the stats of the named cell, or false if the campaign
// produced no measurements for it.
func CellByKey(cells []CellStats, key string) (CellStats, bool) {
	for _, c := range cells {
		if c.Cell == key {
			return c, true
		}
	}
	return CellStats{}, false
}
