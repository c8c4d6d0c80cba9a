// Package boolmat implements square boolean matrices, the paper's analytic
// object.
//
// The adjacency matrix of the product graph G(t) = G1 ∘ … ∘ Gt is a boolean
// n×n matrix M where M[x][y] means "x's initial value has reached y by
// round t". The paper's entire upper-bound analysis is phrased as the
// evolution of this matrix, so this package exposes exactly the operations
// that analysis needs: boolean matrix product, the specialized product with
// a rooted tree round graph, reflexivity/monotonicity predicates, and the
// row/column statistics (reach and heard counts) the proof tracks.
//
// Rows are stored as bitsets: row x is the reach set R_x of process x.
package boolmat

import (
	"fmt"
	"strings"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/tree"
)

// Matrix is a dense n×n boolean matrix with bitset rows.
//
// All rows live in one contiguous bitset.Block (DESIGN.md §3g); the rows
// slice holds per-row Set views aliasing the block, so the Row API is
// unchanged while ApplyTree can run word-blocked kernels over the flat
// storage.
//
// Construct with Zero, Identity, FromTree, or FromRows. Methods that combine
// matrices require equal dimension and panic otherwise (programmer error).
type Matrix struct {
	n     int
	block *bitset.Block
	rows  []*bitset.Set // rows[x] aliases block row x (reach set R_x)
	// cols is ApplyTree scratch (the transposed word-columns of one 64-row
	// band). Reused across calls; makes ApplyTree non-reentrant, which is
	// fine: a Matrix is never shared across goroutines.
	cols []uint64
}

// Zero returns the n×n all-false matrix.
func Zero(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("boolmat: negative dimension %d", n))
	}
	block := bitset.NewBlock(n, n)
	rows := make([]*bitset.Set, n)
	for i := range rows {
		rows[i] = block.RowSet(i)
	}
	return &Matrix{n: n, block: block, rows: rows}
}

// Identity returns the n×n identity matrix — the knowledge state at round
// 0, where every process has heard only itself.
func Identity(n int) *Matrix {
	m := Zero(n)
	m.block.SetDiagonal()
	return m
}

// SetIdentity resets m to the identity matrix in place, reusing its rows.
// It returns the knowledge state to round 0 without allocating, which is
// what lets MatrixEngine participate in the pooled-runner lifecycle.
func (m *Matrix) SetIdentity() {
	m.block.Zero()
	m.block.SetDiagonal()
}

// FromTree returns the adjacency matrix of the round graph of t: one edge
// parent → child for every non-root vertex, plus a self-loop on every
// vertex.
func FromTree(t *tree.Tree) *Matrix {
	n := t.N()
	m := Identity(n)
	for v, p := range t.Parents() {
		if v != p {
			m.rows[p].Set(v)
		}
	}
	return m
}

// FromRows builds a matrix from explicit row contents (slices of column
// indices). Mainly for tests.
func FromRows(n int, rows [][]int) *Matrix {
	if len(rows) != n {
		panic(fmt.Sprintf("boolmat: %d rows for dimension %d", len(rows), n))
	}
	m := Zero(n)
	for i, r := range rows {
		for _, j := range r {
			m.rows[i].Set(j)
		}
	}
	return m
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// Test reports entry (x, y).
func (m *Matrix) Test(x, y int) bool { return m.rows[x].Test(y) }

// Set sets entry (x, y) to true.
func (m *Matrix) Set(x, y int) { m.rows[x].Set(y) }

// Row returns row x (the reach set of x). The returned set is the live row;
// callers that need to mutate must Clone.
func (m *Matrix) Row(x int) *bitset.Set { return m.rows[x] }

// Column materializes column y (the heard set of y) as a fresh bitset.
func (m *Matrix) Column(y int) *bitset.Set {
	col := bitset.New(m.n)
	for x := 0; x < m.n; x++ {
		if m.rows[x].Test(y) {
			col.Set(x)
		}
	}
	return col
}

// Clone returns an independent deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, block: m.block.Clone(), rows: make([]*bitset.Set, m.n)}
	for i := range c.rows {
		c.rows[i] = c.block.RowSet(i)
	}
	return c
}

// Equal reports whether m and o have identical entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, r := range m.rows {
		if !r.Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

func (m *Matrix) same(o *Matrix) {
	if m.n != o.n {
		panic(fmt.Sprintf("boolmat: dimension mismatch %d != %d", m.n, o.n))
	}
}

// Product returns m ∘ o: (x,y) set iff ∃z with m(x,z) and o(z,y).
// Row-oriented: row_result(x) = ⋃ { row_o(z) : z ∈ row_m(x) }, which costs
// O(n²·n/64) words in the worst case.
func (m *Matrix) Product(o *Matrix) *Matrix {
	m.same(o)
	out := Zero(m.n)
	for x := 0; x < m.n; x++ {
		dst := out.rows[x]
		m.rows[x].ForEach(func(z int) bool {
			dst.Union(o.rows[z])
			return true
		})
	}
	return out
}

// ApplyTree right-multiplies m in place by the round graph of t (tree edges
// plus all self-loops): after the call, (x,y) holds iff it held before or
// (x, parent(y)) held before. This is one synchronous round of the model.
//
// The update is word-blocked: each band of 64 rows is bit-transposed into
// per-column words (bitset.Transpose64), every tree edge then becomes a
// single word OR cols[y] |= cols[parent(y)] advancing all 64 band rows at
// once, and the band is transposed back. Applying edges child-before-parent
// (Tree.ChildFirst) guarantees each parent column read is the pre-round
// value, so a bit set during the round cannot cascade to grandchildren —
// the same one-hop-per-round invariant the scalar update kept by buffering
// additions. O(n²/64 + n²/32) word operations instead of O(n²) bit tests.
func (m *Matrix) ApplyTree(t *tree.Tree) {
	if t.N() != m.n {
		panic(fmt.Sprintf("boolmat: tree on %d vertices, matrix dimension %d", t.N(), m.n))
	}
	if m.n == 0 {
		return
	}
	parents := t.Parents()
	order := t.ChildFirst()[:m.n-1] // the root, last, has no edge to apply
	stride := m.block.Stride()
	words := m.block.Words()
	if len(m.cols) < stride*64 {
		m.cols = make([]uint64, stride*64)
	}
	cols := m.cols
	var tile [64]uint64
	for band := 0; band < m.n; band += 64 {
		bandRows := m.n - band
		if bandRows > 64 {
			bandRows = 64
		}
		// Gather: transpose each 64×64 tile of the band so cols[y] holds
		// column y of the band's rows (bit r = entry (band+r, y)).
		for wi := 0; wi < stride; wi++ {
			base := (band)*stride + wi
			for r := 0; r < bandRows; r++ {
				tile[r] = words[base+r*stride]
			}
			for r := bandRows; r < 64; r++ {
				tile[r] = 0
			}
			bitset.Transpose64(&tile)
			copy(cols[wi*64:(wi+1)*64], tile[:])
		}
		// Apply every edge as one word OR, children before parents.
		for _, y := range order {
			cols[y] |= cols[parents[y]]
		}
		// Scatter: transpose back into the rows.
		for wi := 0; wi < stride; wi++ {
			copy(tile[:], cols[wi*64:(wi+1)*64])
			bitset.Transpose64(&tile)
			base := (band)*stride + wi
			for r := 0; r < bandRows; r++ {
				words[base+r*stride] = tile[r]
			}
		}
	}
}

// IsReflexive reports whether every diagonal entry is set. All knowledge
// states G(t) are reflexive because round graphs carry self-loops.
func (m *Matrix) IsReflexive() bool {
	for i, r := range m.rows {
		if !r.Test(i) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every entry of m is also set in o (G(t) ⊆
// G(t+1) monotonicity).
func (m *Matrix) SubsetOf(o *Matrix) bool {
	m.same(o)
	for i, r := range m.rows {
		if !r.SubsetOf(o.rows[i]) {
			return false
		}
	}
	return true
}

// EdgeCount returns the number of true entries.
func (m *Matrix) EdgeCount() int {
	c := 0
	for _, r := range m.rows {
		c += r.Count()
	}
	return c
}

// HasFullRow reports whether some row is all-true — i.e. some process has
// broadcast to everyone. This is the broadcast termination predicate.
func (m *Matrix) HasFullRow() bool {
	for _, r := range m.rows {
		if r.Full() {
			return true
		}
	}
	return false
}

// FullRows returns the indices of all-true rows (the processes that have
// completed broadcast), in increasing order.
func (m *Matrix) FullRows() []int {
	var out []int
	for i, r := range m.rows {
		if r.Full() {
			out = append(out, i)
		}
	}
	return out
}

// AllRowsFull reports whether every row is all-true — gossip completion.
func (m *Matrix) AllRowsFull() bool {
	for _, r := range m.rows {
		if !r.Full() {
			return false
		}
	}
	return true
}

// RowCounts returns |R_x| for every x: how many processes each value has
// reached.
func (m *Matrix) RowCounts() []int {
	out := make([]int, m.n)
	for i, r := range m.rows {
		out[i] = r.Count()
	}
	return out
}

// ColCounts returns |K_y| for every y: how many values each process has
// heard.
func (m *Matrix) ColCounts() []int {
	out := make([]int, m.n)
	for _, r := range m.rows {
		r.ForEach(func(y int) bool {
			out[y]++
			return true
		})
	}
	return out
}

// Stats summarizes the matrix quantities the paper's analysis tracks.
type Stats struct {
	Edges      int // number of true entries
	MinRow     int // min reach-set size
	MaxRow     int // max reach-set size
	MinCol     int // min heard-set size
	MaxCol     int // max heard-set size
	FullRows   int // processes that completed broadcast
	Complement int // n² − Edges: entries still missing
}

// Stats computes summary statistics in one pass over rows plus one over
// column counts.
func (m *Matrix) Stats() Stats {
	if m.n == 0 {
		return Stats{}
	}
	s := Stats{MinRow: m.n + 1, MinCol: m.n + 1}
	cols := m.ColCounts()
	for _, r := range m.rows {
		c := r.Count()
		s.Edges += c
		if c < s.MinRow {
			s.MinRow = c
		}
		if c > s.MaxRow {
			s.MaxRow = c
		}
		if c == m.n {
			s.FullRows++
		}
	}
	for _, c := range cols {
		if c < s.MinCol {
			s.MinCol = c
		}
		if c > s.MaxCol {
			s.MaxCol = c
		}
	}
	s.Complement = m.n*m.n - s.Edges
	return s
}

// Transpose returns the transposed matrix (reach ↔ heard perspective).
func (m *Matrix) Transpose() *Matrix {
	out := Zero(m.n)
	for x := 0; x < m.n; x++ {
		m.rows[x].ForEach(func(y int) bool {
			out.rows[y].Set(x)
			return true
		})
	}
	return out
}

// Permute returns the matrix re-labeled by perm: entry (x,y) of the result
// equals entry (perm[x], perm[y]) of m. Used by the game solver to
// canonicalize states under process renaming.
func (m *Matrix) Permute(perm []int) *Matrix {
	if len(perm) != m.n {
		panic(fmt.Sprintf("boolmat: permutation of length %d for dimension %d", len(perm), m.n))
	}
	out := Zero(m.n)
	for x := 0; x < m.n; x++ {
		src := m.rows[perm[x]]
		dst := out.rows[x]
		for y := 0; y < m.n; y++ {
			if src.Test(perm[y]) {
				dst.Set(y)
			}
		}
	}
	return out
}

// Key returns a compact string key identifying the matrix contents, for
// memoization. Equal matrices have equal keys.
func (m *Matrix) Key() string {
	var b strings.Builder
	b.Grow(m.n * ((m.n + 63) / 64) * 8)
	for _, r := range m.rows {
		for _, w := range r.Words() {
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(w >> (8 * i))
			}
			b.Write(buf[:])
		}
	}
	return b.String()
}

// String renders the matrix as rows of 0/1 characters.
func (m *Matrix) String() string {
	var b strings.Builder
	for x := 0; x < m.n; x++ {
		for y := 0; y < m.n; y++ {
			if m.rows[x].Test(y) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		if x < m.n-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
