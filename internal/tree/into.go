package tree

import (
	"fmt"

	"dyntreecast/internal/rng"
)

// This file implements the in-place tree generators of the batched trial
// pipeline (DESIGN.md §3d). Each ...Into function writes its result into a
// caller-owned Buf instead of allocating a fresh Tree, and the classic
// allocating forms (Random, RandomPath, RandomWithLeaves, RandomWithInner)
// are thin wrappers over them — one implementation, so the two spellings
// consume random streams identically and campaigns stay byte-for-byte
// reproducible whichever path runs them.

// Buf is a reusable tree buffer: the parent array and child-first order
// of the generated tree plus the scratch the generators need (Prüfer
// decoding, permutation and adjacency workspaces). Buffers grow to the
// largest n seen and are reused across calls, so a warm Buf generates
// trees with zero allocations.
//
// The *Tree returned by a ...Into call aliases the Buf: it is valid only
// until the Buf's next generation, and callers must neither mutate nor
// retain it beyond that. This deliberately relaxes Tree's usual
// immutability — the simulation engines only read a round's tree during
// Step, which is exactly the lifetime the in-place adversaries need.
// The zero value is ready to use.
type Buf struct {
	t Tree
	// generator scratch
	seq, deg, eu, ev, off, cur, tgt, perm, sl []int
	mark                                      []bool
}

// Tree returns the most recently generated tree (nil parent array before
// the first generation). Valid until the next generation into b.
func (b *Buf) Tree() *Tree { return &b.t }

// Grow returns *p resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified. It is the scratch
// growth policy of the whole in-place pipeline — the generators here and
// the adversaries' pooled scratch share it, so a change to the policy (e.g.
// amortized doubling) lands everywhere at once.
func Grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// parentBuf returns b's parent array resized to n.
func (b *Buf) parentBuf(n int) []int { return Grow(&b.t.parent, n) }

// orderBuf returns b's child-first order resized to n. Every generator
// rewrites all n entries, so a previous tree's order is never served.
func (b *Buf) orderBuf(n int) []int { return Grow(&b.t.order, n) }

// single resets b to the one-vertex tree.
func (b *Buf) single() *Tree {
	b.parentBuf(1)[0] = 0
	b.orderBuf(1)[0] = 0
	b.t.root = 0
	return &b.t
}

// RandomInto generates a uniformly random rooted labeled tree on n
// vertices into b — the same distribution and random-stream consumption
// as Random, which wraps it — and returns b's tree.
func RandomInto(b *Buf, n int, src *rng.Source) *Tree {
	if n <= 0 {
		panic("tree: Random needs n >= 1")
	}
	if n == 1 {
		return b.single()
	}
	seq := Grow(&b.seq, n-2)
	for i := range seq {
		seq[i] = src.Intn(n)
	}
	b.decodePrufer(seq, n, src.Intn(n))
	return &b.t
}

// decodePrufer decodes a Prüfer sequence and roots the tree at root,
// writing into b. It mirrors FromPrufer's algorithm step for step — same
// edge order, same BFS orientation — so the two produce identical parent
// arrays; inputs must already be validated (every symbol and root in
// [0,n), len(seq) == n−2, n >= 2).
func (b *Buf) decodePrufer(seq []int, n, root int) {
	deg := Grow(&b.deg, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, s := range seq {
		deg[s]++
	}
	// Classic O(n) decoding into an edge list (eu[i], ev[i]).
	eu, ev := Grow(&b.eu, n-1), Grow(&b.ev, n-1)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	ne := 0
	for _, s := range seq {
		eu[ne], ev[ne] = leaf, s
		ne++
		deg[leaf]-- // consumed; degree drops to 0 so later scans skip it
		deg[s]--
		if deg[s] == 1 && s < ptr {
			leaf = s
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Two vertices of degree 1 remain; one is leaf, the other is the last
	// unconsumed one.
	last := -1
	for v := n - 1; v >= 0; v-- {
		if v != leaf && deg[v] == 1 {
			last = v
			break
		}
	}
	eu[ne], ev[ne] = leaf, last
	ne++

	// Undirected adjacency in CSR form, filled in edge order so every
	// vertex sees its neighbors in the same order FromPrufer's appends
	// produce them.
	off := Grow(&b.off, n+1)
	for i := range off {
		off[i] = 0
	}
	for i := 0; i < ne; i++ {
		off[eu[i]+1]++
		off[ev[i]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	cur := Grow(&b.cur, n)
	copy(cur, off[:n])
	tgt := Grow(&b.tgt, 2*ne)
	for i := 0; i < ne; i++ {
		u, v := eu[i], ev[i]
		tgt[cur[u]] = v
		cur[u]++
		tgt[cur[v]] = u
		cur[v]++
	}

	// Orient away from root by BFS. The queue is the tree's order filled
	// back to front (queue slot i is order[n-1-i]), so the reversed BFS —
	// a child-first order — falls out of the traversal for free.
	parent := b.parentBuf(n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	order := b.orderBuf(n)
	order[n-1] = root
	qh, qt := n-1, n-2
	for qh > qt {
		u := order[qh]
		qh--
		for j := off[u]; j < off[u+1]; j++ {
			if v := tgt[j]; parent[v] == -1 {
				parent[v] = u
				order[qt] = v
				qt--
			}
		}
	}
	b.t.root = root
}

// PathInto writes the path tree visiting order[0] → order[1] → … into b
// and returns b's tree. Like MustPath it panics if order is not a
// permutation of [0,n) — the in-place generators are the trusted hot
// path, not a validation boundary.
func PathInto(b *Buf, order []int) *Tree {
	n := len(order)
	if n == 0 {
		b.t.parent = b.t.parent[:0]
		b.t.order = b.t.order[:0]
		b.t.root = 0
		return &b.t
	}
	mark := Grow(&b.mark, n)
	for i := range mark {
		mark[i] = false
	}
	for _, v := range order {
		if v < 0 || v >= n || mark[v] {
			panic(fmt.Sprintf("tree: PathInto order is not a permutation of [0,%d)", n))
		}
		mark[v] = true
	}
	fillPath(b.parentBuf(n), b.orderBuf(n), order)
	b.t.root = order[0]
	return &b.t
}

// RandomPathInto generates a directed path through a uniform random
// permutation into b — same distribution and stream consumption as
// RandomPath, which wraps it.
func RandomPathInto(b *Buf, n int, src *rng.Source) *Tree {
	perm := Grow(&b.perm, n)
	for i := range perm {
		perm[i] = i
	}
	src.Shuffle(perm)
	return PathInto(b, perm)
}

// RandomWithLeavesInto generates a random rooted tree on n vertices with
// exactly k leaves into b — same distribution (the skeleton-plus-
// attachment construction of RandomWithLeaves, which wraps it), same
// stream consumption, same error cases.
func RandomWithLeavesInto(b *Buf, n, k int, src *rng.Source) (*Tree, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("%w: need n >= 1", ErrInvalidTree)
	case n == 1:
		if k != 1 {
			return nil, fmt.Errorf("%w: n=1 has exactly 1 leaf, not %d", ErrInvalidTree, k)
		}
		return b.single(), nil
	case k < 1 || k > n-1:
		return nil, fmt.Errorf("%w: n=%d needs 1 <= k <= %d leaves, got %d", ErrInvalidTree, n, n-1, k)
	}
	m := n - k // inner vertex count, >= 1
	perm := Grow(&b.perm, n)
	for i := range perm {
		perm[i] = i
	}
	src.Shuffle(perm)
	inner, leaves := perm[:m], perm[m:]

	// Build a random skeleton over the inner vertices with at most k
	// skeleton-leaves, so each skeleton-leaf can absorb a real leaf. A
	// random attachment tree ("random recursive tree") tends to have about
	// m/2 leaves; retry a few times, then fall back to a path skeleton
	// (exactly one skeleton-leaf), which always works since k >= 1.
	//
	// The skeleton-leaf count is kept while drawing: attaching inner[i]
	// below inner[j] adds one leaf unless inner[j] was itself a leaf, so
	// the count never falls, and an attempt is lost as soon as it exceeds
	// k. The rest of a lost attempt's draws are still taken, so the
	// random stream does not depend on when the attempt was given up.
	parent := b.parentBuf(n)
	hasChild := Grow(&b.mark, m) // by position in inner
	sl, found := b.sl[:0], false
	for attempt := 0; attempt < 8 && !found; attempt++ {
		parent[inner[0]] = inner[0]
		hasChild[0] = false
		count, i := 1, 1
		for ; i < m && count <= k; i++ {
			j := src.Intn(i)
			parent[inner[i]] = inner[j]
			hasChild[i] = false
			if hasChild[j] {
				count++
			}
			hasChild[j] = true
		}
		for ; i < m; i++ {
			src.Intn(i)
		}
		found = count <= k
	}
	if found {
		for i, v := range inner {
			if !hasChild[i] {
				sl = append(sl, v)
			}
		}
		b.sl = sl
	} else {
		parent[inner[0]] = inner[0]
		for i := 1; i < m; i++ {
			parent[inner[i]] = inner[i-1]
		}
		sl = inner[m-1:]
	}

	// Give each skeleton-leaf one real leaf, then scatter the rest.
	for i, v := range leaves {
		if i < len(sl) {
			parent[v] = sl[i]
		} else {
			parent[v] = inner[src.Intn(m)]
		}
	}
	// Every skeleton parent precedes its child in inner, and the real
	// leaves have no children: the leaves, then inner reversed.
	order := b.orderBuf(n)
	copy(order, leaves)
	for i, v := range inner {
		order[n-1-i] = v
	}
	b.t.root = inner[0]
	return &b.t, nil
}

// RandomWithInnerInto generates a random rooted tree on n vertices with
// exactly m inner (non-leaf) vertices into b. See RandomWithLeavesInto.
func RandomWithInnerInto(b *Buf, n, m int, src *rng.Source) (*Tree, error) {
	if n == 1 {
		if m != 0 {
			return nil, fmt.Errorf("%w: n=1 has 0 inner vertices, not %d", ErrInvalidTree, m)
		}
		return b.single(), nil
	}
	return RandomWithLeavesInto(b, n, n-m, src)
}
