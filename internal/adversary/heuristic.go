package adversary

import (
	"fmt"

	"dyntreecast/internal/core"
	"dyntreecast/internal/tree"
)

// countPath is the pooled scratch of the heard-count path heuristics.
type countPath struct {
	sourceFree
	buf                        tree.Buf
	counts, order, tmp, bucket []int
}

// countHeard sets the pooled counts to |K_y| for every process y — to
// n−|K_y| if desc, so that ascending counts order by descending |K_y| —
// and returns the pooled order, reset to the identity.
func (c *countPath) countHeard(v core.View, desc bool) []int {
	n := v.N()
	counts, order := tree.Grow(&c.counts, n), tree.Grow(&c.order, n)
	for y := 0; y < n; y++ {
		counts[y] = v.Heard(y).Count()
		if desc {
			counts[y] = n - counts[y]
		}
		order[y] = y
	}
	return order
}

// path stably sorts order[:cut] and order[cut:] each by ascending pooled
// count (ties keep their order) and builds, in place, the path visiting
// order.
func (c *countPath) path(order []int, cut int) *tree.Tree {
	n := len(order)
	tmp := tree.Grow(&c.tmp, n)
	countingSortByAsc(order[:cut], tmp[:cut], c.counts, &c.bucket, n)
	countingSortByAsc(order[cut:], tmp[cut:], c.counts, &c.bucket, n)
	return tree.PathInto(&c.buf, order)
}

// AscendingPath plays, each round, the path ordered by ascending heard-set
// size: the most ignorant process is the root and everyone receives from a
// process that knows at most as much as its own tier. Ties break by
// process id, so the adversary is deterministic. The zero value is ready
// to use.
//
// Rationale: along a path v1 → v2 → …, process v_{i+1} gains K_{v_i} \
// K_{v_{i+1}}; feeding everyone from less-knowledgeable processes keeps
// per-round knowledge growth near its minimum.
type AscendingPath struct{ countPath }

// Next implements core.Adversary.
func (a *AscendingPath) Next(v core.View) *tree.Tree {
	order := a.countHeard(v, false)
	return a.path(order, len(order))
}

// DescendingPath is the mirror image of AscendingPath (most knowledgeable
// process at the root). It is a deliberately *bad* adversary — it
// accelerates broadcast — and serves as the contrast case in the
// heuristic-comparison experiments. The zero value is ready to use.
type DescendingPath struct{ countPath }

// Next implements core.Adversary.
func (a *DescendingPath) Next(v core.View) *tree.Tree {
	order := a.countHeard(v, true)
	return a.path(order, len(order))
}

// BlockLeader stalls the most dangerous value. Each round it identifies
// the leader — the incomplete value x with the largest reach set R_x —
// and plays a path whose prefix consists of the processes that have NOT
// heard x. Every non-knower's parent is then also a non-knower, so R_x
// does not grow at all this round; the leader is frozen while the rest of
// the state drifts as slowly as possible (both segments are ordered by
// ascending heard count). Its reach counts, sort scratch and tree are
// pooled, grown once per n; the zero value is ready to use.
//
// This single-round blocking is the basic mechanism behind the known
// lower-bound constructions: broadcast cannot finish until the adversary
// runs out of values it can afford to freeze.
type BlockLeader struct {
	countPath
	rows  [][]uint64
	reach []int
}

// Next implements core.Adversary.
func (a *BlockLeader) Next(v core.View) *tree.Tree {
	n := v.N()
	reach := tree.Grow(&a.reach, n)
	reachCounts(v, tree.Grow(&a.rows, n), reach)

	// Leader: incomplete value with maximum reach; ties by id.
	leader := leaderOf(reach)
	if leader < 0 {
		// Every value has completed (broadcast done); any tree is fine.
		// (IdentityPath allocates, but this round is unreachable from the
		// run loop, which stops once broadcast completes.)
		return tree.IdentityPath(n)
	}

	// order = non-knowers of the leader, then knowers, each segment
	// stably sorted by ascending heard count.
	order := a.countHeard(v, false)
	nk := 0
	for y := 0; y < n; y++ {
		if !v.Heard(y).Test(leader) {
			order[nk] = y
			nk++
		}
	}
	kStart := nk
	for y := 0; y < n; y++ {
		if v.Heard(y).Test(leader) {
			order[kStart] = y
			kStart++
		}
	}
	return a.path(order, nk)
}

// TwoPhasePath is the explicit oblivious schedule in the spirit of the
// Zeiner–Schwarz–Schmid lower-bound construction: play the identity path
// for switchAt rounds, then play the path with its first prefix vertices
// reversed for the remainder. With switchAt ≈ n/2 and prefix ≈ n/2 the
// schedule forces the early leaders' values to double back through the
// first half before they can finish. Both phase trees are built once, at
// construction, and shared by every round of every trial.
//
// The schedule is oblivious (state-independent), so the broadcast time it
// achieves is a certified lower bound on t*(Tn) for that n. The bench
// harness sweeps switchAt/prefix and reports the best value found.
type TwoPhasePath struct {
	sourceFree
	switchAt       int
	phase1, phase2 *tree.Tree
}

// NewTwoPhasePath validates the schedule's shape and builds its two
// phase trees. It returns errors rather than panicking, so it is safe to
// reach from user input such as campaign specs and campaignd requests;
// driving the result on a different n than it was built for panics (a
// programmer error).
func NewTwoPhasePath(n, switchAt, prefix int) (*TwoPhasePath, error) {
	if n < 1 {
		return nil, fmt.Errorf("adversary: two-phase path needs n >= 1, got %d", n)
	}
	if switchAt < 0 {
		return nil, fmt.Errorf("adversary: two-phase path needs switch_at >= 0, got %d", switchAt)
	}
	if prefix < 0 || prefix > n {
		return nil, fmt.Errorf("adversary: two-phase path needs 0 <= prefix <= n, got prefix=%d at n=%d", prefix, n)
	}
	order := make([]int, 0, n)
	for i := prefix - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for i := prefix; i < n; i++ {
		order = append(order, i)
	}
	return &TwoPhasePath{switchAt: switchAt, phase1: tree.IdentityPath(n), phase2: tree.MustPath(order)}, nil
}

// Next implements core.Adversary.
func (a *TwoPhasePath) Next(v core.View) *tree.Tree {
	if n := a.phase1.N(); v.N() != n {
		panic(fmt.Sprintf("adversary: two-phase path built for n=%d, driven with n=%d", n, v.N()))
	}
	if v.Round() < a.switchAt {
		return a.phase1
	}
	return a.phase2
}
