package tree

import (
	"fmt"
	"testing"

	"dyntreecast/internal/rng"
)

// This file pins the child-first order every Tree carries (ChildFirst):
// for every constructor and every in-place generator it must be a
// permutation of [0,n) in which each vertex precedes its parent, and a
// reused Buf must never serve a previous generation's order. The
// TestDepthOrder* tests keep the names they had when the order was
// recomputed per round by a DepthOrder scratch type; the contract they
// pin is the same.

// checkChildBeforeParent verifies the ChildFirst contract on one tree:
// the order is a permutation of [0,n) and every vertex appears strictly
// before its parent (so the root is last).
func checkChildBeforeParent(t *testing.T, tr *Tree) {
	t.Helper()
	n, order := tr.N(), tr.ChildFirst()
	if len(order) != n {
		t.Fatalf("order length %d, want %d for %v", len(order), n, tr)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("order is not a permutation: %v for %v", order, tr)
		}
		seen[v] = true
		pos[v] = i
	}
	for v := 0; v < n; v++ {
		if p := tr.Parent(v); p != v && pos[v] >= pos[p] {
			t.Fatalf("vertex %d (pos %d) not before parent %d (pos %d) in %v, order %v",
				v, pos[v], p, pos[p], tr, order)
		}
	}
}

// mustOK returns an unwrapper of constructor results that fails t on
// error.
func mustOK(t *testing.T) func(*Tree, error) *Tree {
	return func(tr *Tree, err error) *Tree {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

// TestDepthOrderFamilies: every family constructor, and New on the same
// parent arrays, carries a valid order.
func TestDepthOrderFamilies(t *testing.T) {
	must := mustOK(t)
	trees := []*Tree{
		MustNew([]int{0}),
		MustNew([]int{1, 1, 0, 2, 2}),
		IdentityPath(1),
		IdentityPath(8),
		MustPath([]int{3, 1, 0, 2}),
		must(Star(1, 0)),
		must(Star(9, 4)),
		must(Broom([]int{4, 2}, []int{0, 1, 3})),
		must(Broom([]int{0}, nil)),
		must(Caterpillar([]int{5, 0, 3}, [][]int{{1}, nil, {2, 4, 6}})),
		must(Spider(2, [][]int{{0, 4}, {1}, {3, 5, 6}})),
		must(Spider(0, nil)),
		must(CompleteKAry(1, 2)),
		must(CompleteKAry(31, 3)),
		must(FromPrufer(nil, 1, 0)),
		must(FromPrufer(nil, 2, 1)),
		must(FromPrufer([]int{3, 3, 0, 5}, 6, 2)),
	}
	for _, tr := range trees {
		checkChildBeforeParent(t, tr)
		checkChildBeforeParent(t, MustNew(tr.Parents()))
	}
}

// TestDepthOrderRandom: every allocating generator over interleaved sizes.
func TestDepthOrderRandom(t *testing.T) {
	must := mustOK(t)
	src := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%97
		checkChildBeforeParent(t, Random(n, src))
		checkChildBeforeParent(t, RandomPath(n, src))
		k := 1 + src.Intn(max(1, n-1))
		checkChildBeforeParent(t, must(RandomWithLeaves(n, k, src)))
		checkChildBeforeParent(t, must(RandomWithInner(n, n-k, src)))
	}
}

// TestDepthOrderExhaustiveSmall: every tree Enumerate yields for n ≤ 5,
// and New on its parent array.
func TestDepthOrderExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 5; n++ {
		count := int64(0)
		Enumerate(n, func(tr *Tree) bool {
			checkChildBeforeParent(t, tr)
			checkChildBeforeParent(t, MustNew(tr.Parents()))
			count++
			return true
		})
		if count != Count(n) {
			t.Fatalf("n=%d: enumerated %d trees, want %d", n, count, Count(n))
		}
	}
}

// TestDepthOrderEmpty: the empty tree has an empty order, however built.
func TestDepthOrderEmpty(t *testing.T) {
	must := mustOK(t)
	var b Buf
	for name, tr := range map[string]*Tree{
		"zero":     {},
		"New":      MustNew(nil),
		"Path":     must(Path(nil)),
		"PathInto": PathInto(&b, nil),
	} {
		if got := tr.ChildFirst(); len(got) != 0 {
			t.Errorf("%s: ChildFirst() = %v, want empty", name, got)
		}
	}
}

// TestDepthOrderNoAllocSteadyState: a warm Buf fills the order of every
// generator without allocating.
func TestDepthOrderNoAllocSteadyState(t *testing.T) {
	var b Buf
	src := rng.New(7)
	order := []int{5, 3, 0, 1, 4, 2}
	gens := map[string]func(){
		"RandomInto":     func() { RandomInto(&b, 64, src) },
		"RandomPathInto": func() { RandomPathInto(&b, 64, src) },
		"PathInto":       func() { PathInto(&b, order) },
		"RandomWithLeavesInto": func() {
			if _, err := RandomWithLeavesInto(&b, 64, 4, src); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, gen := range gens {
		gen() // warm the scratch
		if allocs := testing.AllocsPerRun(100, gen); allocs != 0 {
			t.Errorf("%s allocated %.1f/op in steady state, want 0", name, allocs)
		}
		checkChildBeforeParent(t, b.Tree())
	}
}

// TestCarriedOrderIntoGenerators: every in-place generator, n = 1
// included, leaves a valid order in the Buf it returns.
func TestCarriedOrderIntoGenerators(t *testing.T) {
	var b Buf
	src := rng.New(11)
	for _, n := range []int{1, 2, 3, 7, 64, 65, 300} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			must := mustOK(t)
			checkChildBeforeParent(t, RandomInto(&b, n, src))
			checkChildBeforeParent(t, RandomPathInto(&b, n, src))
			checkChildBeforeParent(t, PathInto(&b, src.Perm(n)))
			for _, k := range []int{1, 2, 4, n / 2, n - 1} {
				if k < 1 || (n > 1 && k > n-1) || (n == 1 && k != 1) {
					continue
				}
				checkChildBeforeParent(t, must(RandomWithLeavesInto(&b, n, k, src)))
				checkChildBeforeParent(t, must(RandomWithInnerInto(&b, n, n-k, src)))
			}
		})
	}
}

// TestBufOrderNeverStale: one Buf reused across different generators and
// sizes always serves the order of the tree it just generated, and a
// detached copy keeps its own order after the Buf moves on.
func TestBufOrderNeverStale(t *testing.T) {
	must := mustOK(t)
	var b Buf
	src := rng.New(5)
	steps := []struct {
		name string
		gen  func() *Tree
	}{
		{"RandomInto/40", func() *Tree { return RandomInto(&b, 40, src) }},
		{"PathInto/7", func() *Tree { return PathInto(&b, []int{6, 2, 0, 5, 1, 3, 4}) }},
		{"RandomWithLeavesInto/25", func() *Tree { return must(RandomWithLeavesInto(&b, 25, 4, src)) }},
		{"RandomInto/1", func() *Tree { return RandomInto(&b, 1, src) }},
		{"RandomPathInto/33", func() *Tree { return RandomPathInto(&b, 33, src) }},
		{"RandomWithInnerInto/1", func() *Tree { return must(RandomWithInnerInto(&b, 1, 0, src)) }},
		{"RandomInto/40", func() *Tree { return RandomInto(&b, 40, src) }},
	}
	for _, s := range steps {
		tr := s.gen()
		t.Run(s.name, func(t *testing.T) { checkChildBeforeParent(t, tr) })
		// The detached copy keeps its own order once the Buf moves on.
		keep := tr.Clone()
		RandomInto(&b, 50, src)
		checkChildBeforeParent(t, keep)
	}
}

// frozenRandomWithLeaves is RandomWithLeavesInto as it stood before the
// skeleton-leaf count was kept while drawing: every attempt builds the
// whole skeleton, then rescans it for leaves. It is kept only here, as
// the reference that pins the generator's trees and random-stream
// consumption.
func frozenRandomWithLeaves(n, k int, src *rng.Source) []int {
	m := n - k
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	src.Shuffle(perm)
	inner, leaves := perm[:m], perm[m:]
	parent := make([]int, n)
	skeletonLeaves := func(build func()) []int {
		build()
		hasChild := make([]bool, n)
		for _, v := range inner {
			if p := parent[v]; p != v {
				hasChild[p] = true
			}
		}
		var sl []int
		for _, v := range inner {
			if !hasChild[v] {
				sl = append(sl, v)
			}
		}
		return sl
	}
	var sl []int
	for attempt := 0; attempt < 8; attempt++ {
		sl = skeletonLeaves(func() {
			parent[inner[0]] = inner[0]
			for i := 1; i < m; i++ {
				parent[inner[i]] = inner[src.Intn(i)]
			}
		})
		if len(sl) <= k {
			break
		}
	}
	if len(sl) > k {
		sl = skeletonLeaves(func() {
			parent[inner[0]] = inner[0]
			for i := 1; i < m; i++ {
				parent[inner[i]] = inner[i-1]
			}
		})
	}
	for i, v := range leaves {
		if i < len(sl) {
			parent[v] = sl[i]
		} else {
			parent[v] = inner[src.Intn(m)]
		}
	}
	return parent
}

// TestRandomWithLeavesMatchesFrozenReference: the running leaf count
// changes neither the trees nor the draws, including the k = 4, n = 1024
// shape where every random skeleton is rejected and the path fallback
// runs.
func TestRandomWithLeavesMatchesFrozenReference(t *testing.T) {
	must := mustOK(t)
	var b Buf
	for _, c := range []struct{ n, k int }{
		{2, 1}, {3, 1}, {3, 2}, {6, 2}, {20, 3}, {20, 10}, {20, 19},
		{64, 4}, {100, 30}, {257, 128}, {1024, 4},
	} {
		srcA, srcB := rng.New(uint64(c.n*1000+c.k)), rng.New(uint64(c.n*1000+c.k))
		for trial := 0; trial < 6; trial++ {
			want := frozenRandomWithLeaves(c.n, c.k, srcA)
			got := must(RandomWithLeavesInto(&b, c.n, c.k, srcB))
			if !got.Equal(&Tree{parent: want}) {
				t.Fatalf("n=%d k=%d trial %d: tree differs from the frozen reference", c.n, c.k, trial)
			}
			if got.NumLeaves() != c.k {
				t.Fatalf("n=%d k=%d: %d leaves", c.n, c.k, got.NumLeaves())
			}
		}
		if srcA.Uint64() != srcB.Uint64() {
			t.Fatalf("n=%d k=%d: stream positions diverged from the frozen reference", c.n, c.k)
		}
	}
}
