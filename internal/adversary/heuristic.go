package adversary

import (
	"fmt"
	"sort"

	"dyntreecast/internal/core"
	"dyntreecast/internal/tree"
)

// AscendingPath plays, each round, the path ordered by ascending heard-set
// size: the most ignorant process is the root and everyone receives from a
// process that knows at most as much as its own tier. Ties break by
// process id, so the adversary is deterministic.
//
// Rationale: along a path v1 → v2 → …, process v_{i+1} gains K_{v_i} \
// K_{v_{i+1}}; feeding everyone from less-knowledgeable processes keeps
// per-round knowledge growth near its minimum.
type AscendingPath struct{}

// Next implements core.Adversary.
func (AscendingPath) Next(v core.View) *tree.Tree {
	n := v.N()
	counts := heardCounts(v)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return counts[order[a]] < counts[order[b]]
	})
	return tree.MustPath(order)
}

var _ core.Adversary = AscendingPath{}

// DescendingPath is the mirror image of AscendingPath (most knowledgeable
// process at the root). It is a deliberately *bad* adversary — it
// accelerates broadcast — and serves as the contrast case in the
// heuristic-comparison experiments.
type DescendingPath struct{}

// Next implements core.Adversary.
func (DescendingPath) Next(v core.View) *tree.Tree {
	n := v.N()
	counts := heardCounts(v)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return counts[order[a]] > counts[order[b]]
	})
	return tree.MustPath(order)
}

var _ core.Adversary = DescendingPath{}

// BlockLeader stalls the most dangerous value. Each round it identifies
// the leader — the incomplete value x with the largest reach set R_x —
// and plays a path whose prefix consists of the processes that have NOT
// heard x. Every non-knower's parent is then also a non-knower, so R_x
// does not grow at all this round; the leader is frozen while the rest of
// the state drifts as slowly as possible (both segments are ordered by
// ascending heard count).
//
// This single-round blocking is the basic mechanism behind the known
// lower-bound constructions: broadcast cannot finish until the adversary
// runs out of values it can afford to freeze.
type BlockLeader struct{}

// Next implements core.Adversary.
func (BlockLeader) Next(v core.View) *tree.Tree {
	n := v.N()
	reach := make([]int, n)
	reachCounts(v, make([][]uint64, n), reach)
	counts := heardCounts(v)

	// Leader: incomplete value with maximum reach; ties by id.
	leader := leaderOf(reach)
	if leader < 0 {
		// Every value has completed (broadcast done); any tree is fine.
		return tree.IdentityPath(n)
	}

	nonKnowers := make([]int, 0, n)
	knowers := make([]int, 0, n)
	for y := 0; y < n; y++ {
		if v.Heard(y).Test(leader) {
			knowers = append(knowers, y)
		} else {
			nonKnowers = append(nonKnowers, y)
		}
	}
	byAscCount := func(s []int) {
		sort.SliceStable(s, func(a, b int) bool { return counts[s[a]] < counts[s[b]] })
	}
	byAscCount(nonKnowers)
	byAscCount(knowers)
	order := append(nonKnowers, knowers...)
	return tree.MustPath(order)
}

var _ core.Adversary = BlockLeader{}

// TwoPhasePath is the explicit oblivious schedule in the spirit of the
// Zeiner–Schwarz–Schmid lower-bound construction: play the identity path
// for SwitchAt rounds, then play the path with its first Prefix vertices
// reversed for the remainder. With SwitchAt ≈ n/2 and Prefix ≈ n/2 the
// schedule forces the early leaders' values to double back through the
// first half before they can finish.
//
// The schedule is oblivious (state-independent), so the broadcast time it
// achieves is a certified lower bound on t*(Tn) for that n. The bench
// harness sweeps SwitchAt/Prefix and reports the best value found.
type TwoPhasePath struct {
	N        int
	SwitchAt int // rounds of phase 1
	Prefix   int // how many leading vertices to reverse in phase 2
}

// NewTwoPhasePath validates the schedule's shape and returns it as an
// adversary. Unlike constructing the struct directly (whose Next panics
// on a mismatched n — a programmer error), this path returns errors, so
// it is safe to reach from user input such as campaign specs and
// campaignd requests.
func NewTwoPhasePath(n, switchAt, prefix int) (core.Adversary, error) {
	if n < 1 {
		return nil, fmt.Errorf("adversary: two-phase path needs n >= 1, got %d", n)
	}
	if switchAt < 0 {
		return nil, fmt.Errorf("adversary: two-phase path needs switch_at >= 0, got %d", switchAt)
	}
	if prefix < 0 || prefix > n {
		return nil, fmt.Errorf("adversary: two-phase path needs 0 <= prefix <= n, got prefix=%d at n=%d", prefix, n)
	}
	return TwoPhasePath{N: n, SwitchAt: switchAt, Prefix: prefix}, nil
}

// Next implements core.Adversary.
func (a TwoPhasePath) Next(v core.View) *tree.Tree {
	validateN(a.N, v.N())
	n := a.N
	if v.Round() < a.SwitchAt {
		return tree.IdentityPath(n)
	}
	p := a.Prefix
	if p > n {
		p = n
	}
	order := make([]int, 0, n)
	for i := p - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for i := p; i < n; i++ {
		order = append(order, i)
	}
	return tree.MustPath(order)
}

var _ core.Adversary = TwoPhasePath{}
