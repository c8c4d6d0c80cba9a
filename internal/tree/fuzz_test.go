package tree

import (
	"reflect"
	"testing"
)

// FuzzFromPrufer fuzzes the Prüfer decoder — the untrusted decode path
// behind uniform random tree generation and exhaustive enumeration. The
// pinned properties: arbitrary (sequence, n, root) input never panics;
// every accepted input yields a structurally valid rooted tree on n
// vertices with the requested root; and the decode inverts the encode
// (Prufer ∘ FromPrufer = id), which together with the validity of New
// re-checking the parent array pins the bijection the n^(n−1) counting
// arguments rely on.
func FuzzFromPrufer(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))              // singleton
	f.Add([]byte{}, uint8(2), uint8(1))              // the n=2 edge (empty sequence)
	f.Add([]byte{0, 1, 2}, uint8(5), uint8(0))       // a valid 5-vertex decode
	f.Add([]byte{3, 3, 3}, uint8(5), uint8(4))       // star-ish: repeated symbol
	f.Add([]byte{9, 0}, uint8(4), uint8(0))          // symbol out of range
	f.Add([]byte{0, 1, 2, 3}, uint8(4), uint8(0))    // wrong sequence length
	f.Add([]byte{0}, uint8(3), uint8(7))             // root out of range
	f.Add([]byte{255, 254, 253}, uint8(5), uint8(2)) // negative after int8 mapping

	f.Fuzz(func(t *testing.T, data []byte, nb, rootb uint8) {
		n := int(nb)
		root := int(int8(rootb)) // include negative roots
		seq := make([]int, len(data))
		for i, b := range data {
			seq[i] = int(int8(b)) // include negative symbols
		}
		tr, err := FromPrufer(seq, n, root)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if tr.N() != n {
			t.Fatalf("FromPrufer(%v, %d, %d).N() = %d", seq, n, root, tr.N())
		}
		if n >= 1 && tr.Root() != root {
			t.Fatalf("FromPrufer(%v, %d, %d).Root() = %d", seq, n, root, tr.Root())
		}
		// The parent array must satisfy every invariant New enforces, and
		// the tree must carry a valid child-first order.
		if _, err := New(tr.Parents()); err != nil {
			t.Fatalf("FromPrufer(%v, %d, %d) produced an invalid tree: %v", seq, n, root, err)
		}
		checkChildBeforeParent(t, tr)
		// Decode inverts encode (the bijection), except that n ≤ 2 has a
		// single unrooted tree and an always-empty sequence.
		if n >= 3 {
			if got := tr.Prufer(); !reflect.DeepEqual(got, seq) {
				t.Fatalf("Prufer(FromPrufer(%v, %d, %d)) = %v", seq, n, root, got)
			}
		}
	})
}

// FuzzNew fuzzes the validating constructor on arbitrary parent arrays.
// The pinned properties: no input panics; an accepted array has exactly
// one root, is copied verbatim, and carries a child-first order computed
// from scratch; an array is rejected exactly when some vertex does not
// reach a unique root (checked here by a naive walk of at most n steps).
func FuzzNew(f *testing.F) {
	f.Add([]byte{})                 // empty tree
	f.Add([]byte{0})                // singleton
	f.Add([]byte{1, 1, 0, 2, 2})    // valid, root 1
	f.Add([]byte{0, 0, 1, 2, 3, 4}) // identity path
	f.Add([]byte{1, 0})             // 2-cycle, no root
	f.Add([]byte{0, 1})             // two roots
	f.Add([]byte{0, 2, 1})          // cycle hanging off nothing
	f.Add([]byte{0, 9})             // out of range
	f.Add([]byte{255, 0})           // negative after int8 mapping

	f.Fuzz(func(t *testing.T, data []byte) {
		parent := make([]int, len(data))
		for i, b := range data {
			parent[i] = int(int8(b))
		}
		tr, err := New(parent)
		if valid := naiveValid(parent); (err == nil) != valid {
			t.Fatalf("New(%v) error = %v, naive validity %v", parent, err, valid)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(tr.Parents(), parent) && len(parent) > 0 {
			t.Fatalf("New(%v).Parents() = %v", parent, tr.Parents())
		}
		checkChildBeforeParent(t, tr)
	})
}

// naiveValid reports whether parent is a rooted tree: every entry in
// range, exactly one fixed point, and every vertex reaching it within n
// parent steps.
func naiveValid(parent []int) bool {
	n, roots := len(parent), 0
	for i, p := range parent {
		if p < 0 || p >= n {
			return false
		}
		if p == i {
			roots++
		}
	}
	if n > 0 && roots != 1 {
		return false
	}
	for v := range parent {
		u := v
		for steps := 0; parent[u] != u; steps++ {
			if steps > n {
				return false
			}
			u = parent[u]
		}
	}
	return true
}
