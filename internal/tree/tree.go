// Package tree implements rooted labeled trees on the vertex set [n] =
// {0, …, n−1}, the round graphs of the dynamic-tree broadcast model.
//
// A tree is stored as a parent array: Parent(i) is the parent of i, and the
// root is its own parent. In the broadcast model every edge is directed
// parent → child (information flows away from the root) and every node
// additionally carries a self-loop; the self-loops are implicit here and are
// materialized by the simulation engines.
//
// The package provides validation, structural queries (leaves, inner nodes,
// height, depth), the standard tree families used by the paper and by the
// Zeiner–Schwarz–Schmid lower-bound constructions (paths, stars, brooms,
// caterpillars, spiders, complete k-ary trees), a Prüfer-sequence bijection
// for uniform random generation and exhaustive enumeration, and generators
// restricted to a fixed number of leaves or inner nodes (the restricted
// adversary classes of [Zeiner et al. 2019]).
package tree

import (
	"errors"
	"fmt"
	"strings"

	"dyntreecast/internal/rng"
)

// ErrInvalidTree is wrapped by all validation failures in this package.
var ErrInvalidTree = errors.New("invalid rooted tree")

// Tree is an immutable rooted labeled tree on {0,…,n−1}.
//
// Construct with New (validating), one of the family constructors, or the
// random/enumeration helpers. The zero value is the empty tree on zero
// vertices.
//
// Every constructor also records a child-before-parent order of the
// vertices (ChildFirst), so the round engines never recompute it: the
// generators take it from what they already know, and New and the family
// constructors compute it once.
type Tree struct {
	parent []int
	order  []int // child-before-parent permutation of [0,n); root last
	root   int
}

// New builds a tree from a parent array. parent[i] is the parent of node i;
// the root must satisfy parent[root] == root, and exactly one such node may
// exist. Every node must reach the root by following parents. The slice is
// copied; the caller keeps ownership of its argument.
func New(parent []int) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return &Tree{}, nil
	}
	root := -1
	for i, p := range parent {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("%w: parent[%d] = %d out of range [0,%d)", ErrInvalidTree, i, p, n)
		}
		if p == i {
			if root >= 0 {
				return nil, fmt.Errorf("%w: two roots %d and %d", ErrInvalidTree, root, i)
			}
			root = i
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("%w: no root (no fixed point in parent array)", ErrInvalidTree)
	}
	// Check that every node reaches the root. state: 0 unvisited, 1 on
	// current path, 2 known-good.
	state := make([]uint8, n)
	state[root] = 2
	for i := 0; i < n; i++ {
		if state[i] != 0 {
			continue
		}
		v := i
		for state[v] == 0 {
			state[v] = 1
			v = parent[v]
		}
		if state[v] == 1 {
			return nil, fmt.Errorf("%w: cycle through node %d", ErrInvalidTree, v)
		}
		v = i
		for state[v] == 1 {
			state[v] = 2
			v = parent[v]
		}
	}
	p := make([]int, n)
	copy(p, parent)
	return withOrder(p, root), nil
}

// withOrder wraps a valid parent array as a Tree, computing its
// child-first order from scratch: a breadth-first traversal from the root
// over child buckets, written back to front, so depths are non-increasing
// along the result. Four sequential passes, no per-vertex up-walks. The
// generators take the order from what they already know instead; New and
// the family constructors pay for it here.
func withOrder(parent []int, root int) *Tree {
	n := len(parent)
	scratch, order := make([]int, 3*n), make([]int, n)
	cnt, start, kids := scratch[:n], scratch[n:2*n], scratch[2*n:]
	// Pass 1: child counts.
	for v, p := range parent {
		if p != v {
			cnt[p]++
		}
	}
	// Pass 2: bucket offsets.
	idx := 0
	for v := 0; v < n; v++ {
		start[v] = idx
		idx += cnt[v]
	}
	// Pass 3: fill child buckets, advancing start as the write cursor so
	// afterwards start[v] is the END of v's bucket (begin = start[v]-cnt[v]).
	for v, p := range parent {
		if p != v {
			kids[start[p]] = v
			start[p]++
		}
	}
	// Pass 4: BFS from the root written back to front, so reading order
	// forward yields leaves before the root.
	order[n-1] = root
	w := n - 2
	for i := n - 1; i > w; i-- {
		v := order[i]
		for k := start[v] - cnt[v]; k < start[v]; k++ {
			order[w] = kids[k]
			w--
		}
	}
	return &Tree{parent: parent, order: order, root: root}
}

// MustNew is New but panics on error. For tests and literals.
func MustNew(parent []int) *Tree {
	t, err := New(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root vertex. It panics on the empty tree.
func (t *Tree) Root() int {
	if len(t.parent) == 0 {
		panic("tree: Root of empty tree")
	}
	return t.root
}

// Parent returns the parent of v (the root is its own parent).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Parents returns the underlying parent array. The caller must not mutate
// the returned slice; Tree is shared freely across engines.
func (t *Tree) Parents() []int { return t.parent }

// ChildFirst returns a permutation of the vertices in which every vertex
// appears before its parent; the root, an ancestor of all, is therefore
// last. This is the order in which the round engines apply a round in
// place: each vertex is updated before its parent, so every parent value
// read is the pre-round one. The caller must not mutate the returned slice.
func (t *Tree) ChildFirst() []int { return t.order }

// Children returns, for each vertex, the slice of its children, computed in
// O(n). The root is not a child of itself.
func (t *Tree) Children() [][]int {
	n := len(t.parent)
	counts := make([]int, n)
	for v, p := range t.parent {
		if v != p {
			counts[p]++
		}
	}
	children := make([][]int, n)
	for v, c := range counts {
		if c > 0 {
			children[v] = make([]int, 0, c)
		}
	}
	for v, p := range t.parent {
		if v != p {
			children[p] = append(children[p], v)
		}
	}
	return children
}

// Leaves returns the vertices with no children, in increasing order. For
// n == 1 the root is a leaf.
func (t *Tree) Leaves() []int {
	n := len(t.parent)
	hasChild := make([]bool, n)
	for v, p := range t.parent {
		if v != p {
			hasChild[p] = true
		}
	}
	leaves := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !hasChild[v] {
			leaves = append(leaves, v)
		}
	}
	return leaves
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.Leaves()) }

// NumInner returns the number of inner (non-leaf) vertices.
func (t *Tree) NumInner() int { return t.N() - t.NumLeaves() }

// Depth returns the distance from the root to v (root has depth 0).
func (t *Tree) Depth(v int) int {
	d := 0
	for v != t.parent[v] {
		v = t.parent[v]
		d++
	}
	return d
}

// Height returns the maximum depth over all vertices; 0 for n <= 1.
func (t *Tree) Height() int {
	depth := make([]int, len(t.parent))
	h := 0
	for i := len(t.order) - 1; i >= 0; i-- { // every parent before its children
		if v, p := t.order[i], t.parent[t.order[i]]; p != v {
			depth[v] = depth[p] + 1
			h = max(h, depth[v])
		}
	}
	return h
}

// IsPath reports whether the tree is a directed path (every vertex has at
// most one child).
func (t *Tree) IsPath() bool {
	n := len(t.parent)
	childCount := make([]int, n)
	for v, p := range t.parent {
		if v != p {
			childCount[p]++
			if childCount[p] > 1 {
				return false
			}
		}
	}
	return true
}

// IsStar reports whether every non-root vertex is a child of the root.
func (t *Tree) IsStar() bool {
	for v, p := range t.parent {
		if v != p && p != t.root {
			return false
		}
	}
	return true
}

// Equal reports whether t and o are the same labeled tree.
func (t *Tree) Equal(o *Tree) bool {
	if t.N() != o.N() {
		return false
	}
	for i, p := range t.parent {
		if o.parent[i] != p {
			return false
		}
	}
	return true
}

// PathOrder returns the vertices of a path tree in root-to-leaf order. It
// returns an error if the tree is not a path.
func (t *Tree) PathOrder() ([]int, error) {
	if !t.IsPath() {
		return nil, fmt.Errorf("%w: not a path", ErrInvalidTree)
	}
	// A path has exactly one child-first order: leaf to root.
	order := make([]int, len(t.order))
	for i, v := range t.order {
		order[len(order)-1-i] = v
	}
	return order, nil
}

// String renders the parent array compactly, e.g. "root=0 [0 0 1]".
func (t *Tree) String() string {
	if len(t.parent) == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "root=%d [", t.root)
	for i, p := range t.parent {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	b.WriteByte(']')
	return b.String()
}

// Key returns a compact comparable key identifying the labeled tree, for
// use as a map key in enumeration and memoization. Two trees have equal
// keys iff they are Equal.
func (t *Tree) Key() string {
	// Parent values fit in a byte up to n = 256, which covers every
	// exhaustive use; beyond that fall back to a spaced rendering.
	n := len(t.parent)
	if n <= 256 {
		b := make([]byte, n)
		for i, p := range t.parent {
			b[i] = byte(p)
		}
		return string(b)
	}
	return t.String()
}

// Path returns the path tree visiting order[0] → order[1] → … . order must
// be a permutation of [0,n).
func Path(order []int) (*Tree, error) {
	n := len(order)
	if err := checkPerm(order); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Tree{}, nil
	}
	s := make([]int, 2*n)
	fillPath(s[:n:n], s[n:], order)
	return &Tree{parent: s[:n:n], order: s[n:], root: order[0]}, nil
}

// fillPath writes the path order[0] → order[1] → … into parent, and its
// child-first order, which is order reversed, into rev. order must be a
// non-empty permutation of [0,n); parent and rev have length n.
func fillPath(parent, rev, order []int) {
	n := len(order)
	parent[order[0]] = order[0]
	rev[n-1] = order[0]
	for i := 1; i < n; i++ {
		parent[order[i]] = order[i-1]
		rev[n-1-i] = order[i]
	}
}

// MustPath is Path but panics on error.
func MustPath(order []int) *Tree {
	t, err := Path(order)
	if err != nil {
		panic(err)
	}
	return t
}

// IdentityPath returns the path 0 → 1 → … → n−1.
func IdentityPath(n int) *Tree {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return MustPath(order)
}

// Star returns the star with the given root and all other vertices as its
// children.
func Star(n, root int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: star needs n >= 1", ErrInvalidTree)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: star root %d out of range [0,%d)", ErrInvalidTree, root, n)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = root
	}
	return withOrder(parent, root), nil
}

// Broom returns a broom: a path through handle (root first) whose last
// vertex is the parent of every vertex in bristles. handle and bristles
// together must partition [0,n) and handle must be non-empty.
func Broom(handle, bristles []int) (*Tree, error) {
	if len(handle) == 0 {
		return nil, fmt.Errorf("%w: broom needs a non-empty handle", ErrInvalidTree)
	}
	n := len(handle) + len(bristles)
	all := make([]int, 0, n)
	all = append(all, handle...)
	all = append(all, bristles...)
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, n)
	parent[handle[0]] = handle[0]
	for i := 1; i < len(handle); i++ {
		parent[handle[i]] = handle[i-1]
	}
	last := handle[len(handle)-1]
	for _, b := range bristles {
		parent[b] = last
	}
	return withOrder(parent, handle[0]), nil
}

// Caterpillar returns a caterpillar: a path through spine (root first) with
// legs[i] attached as children of spine[i]. spine plus all legs must
// partition [0,n).
func Caterpillar(spine []int, legs [][]int) (*Tree, error) {
	if len(spine) == 0 {
		return nil, fmt.Errorf("%w: caterpillar needs a non-empty spine", ErrInvalidTree)
	}
	if len(legs) != len(spine) {
		return nil, fmt.Errorf("%w: caterpillar needs one leg set per spine vertex (got %d for %d)",
			ErrInvalidTree, len(legs), len(spine))
	}
	all := make([]int, 0, len(spine))
	all = append(all, spine...)
	for _, l := range legs {
		all = append(all, l...)
	}
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, len(all))
	parent[spine[0]] = spine[0]
	for i := 1; i < len(spine); i++ {
		parent[spine[i]] = spine[i-1]
	}
	for i, l := range legs {
		for _, v := range l {
			parent[v] = spine[i]
		}
	}
	return withOrder(parent, spine[0]), nil
}

// Spider returns a spider: legs (vertex-disjoint paths) hanging from the
// root. root plus all legs must partition [0,n).
func Spider(root int, legs [][]int) (*Tree, error) {
	all := []int{root}
	for _, l := range legs {
		all = append(all, l...)
	}
	if err := checkPerm(all); err != nil {
		return nil, err
	}
	parent := make([]int, len(all))
	parent[root] = root
	for _, l := range legs {
		prev := root
		for _, v := range l {
			parent[v] = prev
			prev = v
		}
	}
	return withOrder(parent, root), nil
}

// CompleteKAry returns the complete k-ary tree on n vertices in level
// order: vertex 0 is the root and vertex i has parent (i−1)/k.
func CompleteKAry(n, k int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: k-ary tree needs n >= 1", ErrInvalidTree)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k-ary tree needs k >= 1", ErrInvalidTree)
	}
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = (i - 1) / k
	}
	return withOrder(parent, 0), nil
}

func checkPerm(vs []int) error {
	n := len(vs)
	seen := make([]bool, n)
	for _, v := range vs {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrInvalidTree, v, n)
		}
		if seen[v] {
			return fmt.Errorf("%w: vertex %d repeated", ErrInvalidTree, v)
		}
		seen[v] = true
	}
	return nil
}

// FromPrufer decodes a Prüfer sequence into an unrooted labeled tree and
// roots it at root. seq has length n−2 for a tree on n ≥ 2 vertices; each
// entry must lie in [0,n). This is the standard bijection: rooted labeled
// trees on [n] correspond exactly to (sequence, root) pairs, giving
// Cayley's n^(n−1) count.
func FromPrufer(seq []int, n, root int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: FromPrufer needs n >= 1", ErrInvalidTree)
	}
	if len(seq) != n-2 && !(n <= 2 && len(seq) == 0) {
		return nil, fmt.Errorf("%w: Prüfer sequence length %d, want %d", ErrInvalidTree, len(seq), n-2)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d out of range [0,%d)", ErrInvalidTree, root, n)
	}
	if n == 1 {
		return &Tree{parent: []int{0}, order: []int{0}, root: 0}, nil
	}
	for _, s := range seq {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: Prüfer symbol %d out of range [0,%d)", ErrInvalidTree, s, n)
		}
	}
	// The decoding itself lives in Buf.decodePrufer (into.go), shared with
	// the in-place generators so the two paths cannot drift; cloned so
	// the returned tree doesn't pin the decoder's scratch.
	var b Buf
	b.decodePrufer(seq, n, root)
	return b.t.Clone(), nil
}

// Prufer encodes the tree's underlying unrooted labeled tree as a Prüfer
// sequence of length n−2 (empty for n ≤ 2). Together with the root it
// uniquely determines the rooted tree; see FromPrufer.
func (t *Tree) Prufer() []int {
	n := len(t.parent)
	if n <= 2 {
		return nil
	}
	// Undirected adjacency via degrees and a "neighbor xor" trick is
	// possible, but plain adjacency lists are clearer.
	adj := make([][]int, n)
	for v, p := range t.parent {
		if v != p {
			adj[v] = append(adj[v], p)
			adj[p] = append(adj[p], v)
		}
	}
	degree := make([]int, n)
	for v := range adj {
		degree[v] = len(adj[v])
	}
	removed := make([]bool, n)
	seq := make([]int, 0, n-2)
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for len(seq) < n-2 {
		// The unique remaining neighbor of leaf.
		nb := -1
		for _, u := range adj[leaf] {
			if !removed[u] {
				nb = u
				break
			}
		}
		seq = append(seq, nb)
		removed[leaf] = true
		degree[nb]--
		if degree[nb] == 1 && nb < ptr {
			leaf = nb
		} else {
			ptr++
			for ptr < n && degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	return seq
}

// Clone returns an independent copy of t, its child-first order included,
// backed by exactly-sized private storage. It is how a caller keeps a tree
// an adversary built in reusable buffers past that adversary's next round
// (see core.Adversary), and the allocating generator wrappers return
// clones so a retained Tree never pins its generating Buf's O(n) scratch.
func (t *Tree) Clone() *Tree {
	n := len(t.parent)
	s := make([]int, 2*n)
	copy(s, t.parent)
	copy(s[n:], t.order)
	return &Tree{parent: s[:n:n], order: s[n:], root: t.root}
}

// Random returns a uniformly random rooted labeled tree on n vertices:
// uniform Prüfer sequence plus uniform root, covering all n^(n−1) rooted
// trees with equal probability. Thin wrapper over RandomInto (into.go).
func Random(n int, src *rng.Source) *Tree {
	var b Buf
	return RandomInto(&b, n, src).Clone()
}

// RandomPath returns a directed path through a uniform random permutation.
// Thin wrapper over RandomPathInto (into.go).
func RandomPath(n int, src *rng.Source) *Tree {
	var b Buf
	return RandomPathInto(&b, n, src).Clone()
}

// Enumerate calls fn once for every rooted labeled tree on n vertices, in a
// deterministic order, until fn returns false. The number of trees is
// n^(n−1) (Cayley), so this is only feasible for small n; callers guard n.
func Enumerate(n int, fn func(*Tree) bool) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(MustNew([]int{0}))
		return
	}
	// One decoder Buf serves every tree; each is detached before fn sees
	// it. The sequences are in range by construction.
	var b Buf
	seq := make([]int, n-2)
	for {
		for root := 0; root < n; root++ {
			b.decodePrufer(seq, n, root)
			if !fn(b.t.Clone()) {
				return
			}
		}
		// Advance seq as a base-n counter.
		i := len(seq) - 1
		for i >= 0 {
			seq[i]++
			if seq[i] < n {
				break
			}
			seq[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Count returns n^(n−1), the number of rooted labeled trees on n vertices.
// It panics if the count overflows int64 (n > 15 on 64-bit).
func Count(n int) int64 {
	if n <= 0 {
		return 0
	}
	var c int64 = 1
	for i := 0; i < n-1; i++ {
		prev := c
		c *= int64(n)
		if c/int64(n) != prev {
			panic("tree: Count overflow")
		}
	}
	return c
}

// RandomWithLeaves returns a random rooted tree on n vertices with exactly
// k leaves. Valid ranges: n == 1 requires k == 1; n >= 2 requires
// 1 <= k <= n−1. The distribution is not uniform over all such trees (a
// skeleton-plus-attachment construction), which is sufficient for the
// restricted-adversary experiments. Thin wrapper over
// RandomWithLeavesInto (into.go).
func RandomWithLeaves(n, k int, src *rng.Source) (*Tree, error) {
	var b Buf
	t, err := RandomWithLeavesInto(&b, n, k, src)
	if err != nil {
		return nil, err
	}
	return t.Clone(), nil
}

// RandomWithInner returns a random rooted tree on n vertices with exactly m
// inner (non-leaf) vertices. See RandomWithLeaves for the distribution
// caveat. Thin wrapper over RandomWithInnerInto (into.go).
func RandomWithInner(n, m int, src *rng.Source) (*Tree, error) {
	var b Buf
	t, err := RandomWithInnerInto(&b, n, m, src)
	if err != nil {
		return nil, err
	}
	return t.Clone(), nil
}
