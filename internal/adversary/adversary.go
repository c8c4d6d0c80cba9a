// Package adversary implements the tree-choosing strategies of the
// broadcast game.
//
// The paper's t*(Tn) is a maximum over all adversaries; a simulator can
// only exhibit particular adversaries, each of which yields a lower bound
// on t*(Tn). The package provides three strata:
//
//   - Oblivious schedules: Static, Cycle, Replay, the random families
//     (Random, RandomPath), and the restricted families (KLeaves, KInner)
//     that reproduce the Zeiner et al. O(kn) regimes.
//   - Adaptive heuristics that inspect the knowledge state each round:
//     AscendingPath (feed the ignorant first), BlockLeader (starve the
//     most-spread value), and MinGain (a minimum-weight arborescence per
//     round via Chu-Liu/Edmonds, minimizing the number of new product-graph
//     edges).
//   - Search: BeamSearch explores tree sequences offline and returns the
//     best schedule found as a Replay.
//
// All adversaries are deterministic given their inputs (random ones take an
// explicit rng.Source), so every experiment in this repository reproduces
// bit-for-bit from seeds.
//
// Paper anchors: the portfolio feeds the best-measured curves of Figure 1
// (experiment E1) and the Theorem 3.1 sandwich checks (E2); the static
// path realizes the §2 equality t* = n−1 (E3); KLeaves/KInner reproduce
// the Zeiner et al. restricted regimes (E5); and the adaptive heuristics
// drive the matrix-evolution traces of E8.
package adversary

import (
	"fmt"

	"dyntreecast/internal/bitset"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// Func adapts a function to core.Adversary.
type Func func(core.View) *tree.Tree

// Next implements core.Adversary.
func (f Func) Next(v core.View) *tree.Tree { return f(v) }

var _ core.Adversary = (Func)(nil)

// Static plays the same tree every round — the §2 baseline (a static path
// yields t* = n−1).
type Static struct{ Tree *tree.Tree }

// Next implements core.Adversary.
func (s Static) Next(core.View) *tree.Tree { return s.Tree }

var _ core.Adversary = Static{}

// Cycle plays a finite schedule repeatedly: round i uses Trees[i mod len].
type Cycle struct{ Trees []*tree.Tree }

// Next implements core.Adversary.
func (c Cycle) Next(v core.View) *tree.Tree {
	if len(c.Trees) == 0 {
		return nil
	}
	return c.Trees[v.Round()%len(c.Trees)]
}

var _ core.Adversary = Cycle{}

// Replay plays a finite schedule once and then repeats its last tree
// forever. This is how offline-search results are fed back into the
// engine: the searched prefix is what matters, and repeating the final
// tree guarantees termination (any fixed rooted tree completes broadcast).
type Replay struct{ Trees []*tree.Tree }

// Next implements core.Adversary.
func (r Replay) Next(v core.View) *tree.Tree {
	if len(r.Trees) == 0 {
		return nil
	}
	if i := v.Round(); i < len(r.Trees) {
		return r.Trees[i]
	}
	return r.Trees[len(r.Trees)-1]
}

var _ core.Adversary = Replay{}

// reachCounts sets reach[x] to |R_x|, the number of processes that have
// heard x, for every x: the column popcounts of the view's heard rows
// (y ∈ R_x iff x ∈ K_y), counted tile by tile by bitset.ColumnCounts.
// rows is scratch for the n heard rows; len(rows) == len(reach) == n.
func reachCounts(v core.View, rows [][]uint64, reach []int) {
	for y := range rows {
		rows[y] = v.Heard(y).Words()
	}
	bitset.ColumnCounts(reach, rows)
}

// leaderOf returns the incomplete value with the largest reach, ties by
// id, or -1 once every value has reached all len(reach) processes.
func leaderOf(reach []int) int {
	leader, best := -1, -1
	for x, c := range reach {
		if c < len(reach) && c > best {
			leader, best = x, c
		}
	}
	return leader
}

// heardCounts returns |K_y| for every y.
func heardCounts(v core.View) []int {
	n := v.N()
	out := make([]int, n)
	for y := 0; y < n; y++ {
		out[y] = v.Heard(y).Count()
	}
	return out
}

// validateN panics if the adversary was constructed for a different n than
// the engine it is driving. Used by adaptive adversaries that precompute
// n-sized scratch state. The panic marks a programmer error in direct
// library use; every construction path reachable from user input (campaign
// specs, campaignd requests) goes through error-returning constructors
// such as NewTwoPhasePath, which validate before the engine ever steps.
func validateN(want, got int) {
	if want != got {
		panic(fmt.Sprintf("adversary: built for n=%d, driven with n=%d", want, got))
	}
}

// Random plays an independent uniformly random rooted tree each round.
type Random struct{ Src *rng.Source }

// Next implements core.Adversary.
func (r Random) Next(v core.View) *tree.Tree { return tree.Random(v.N(), r.Src) }

var _ core.Adversary = Random{}

// RandomPath plays an independent uniformly random directed path each
// round.
type RandomPath struct{ Src *rng.Source }

// Next implements core.Adversary.
func (r RandomPath) Next(v core.View) *tree.Tree { return tree.RandomPath(v.N(), r.Src) }

var _ core.Adversary = RandomPath{}

// KLeaves plays random trees with exactly K leaves — the k-leaf restricted
// adversary class of Zeiner et al., for which broadcast time is O(k·n).
type KLeaves struct {
	K   int
	Src *rng.Source
}

// Next implements core.Adversary. It returns nil (failing the run) if K is
// infeasible for the engine's n.
func (a KLeaves) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithLeaves(v.N(), a.K, a.Src)
	if err != nil {
		return nil
	}
	return t
}

var _ core.Adversary = KLeaves{}

// KInner plays random trees with exactly K inner nodes — the k-inner-node
// restricted adversary class of Zeiner et al.
type KInner struct {
	K   int
	Src *rng.Source
}

// Next implements core.Adversary. It returns nil (failing the run) if K is
// infeasible for the engine's n.
func (a KInner) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithInner(v.N(), a.K, a.Src)
	if err != nil {
		return nil
	}
	return t
}

var _ core.Adversary = KInner{}
