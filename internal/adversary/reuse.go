package adversary

import (
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// This file implements the reusable forms of the stock adversaries for
// the batched trial pipeline (DESIGN.md §3d). A reusable adversary owns
// per-n scratch — tree buffers, bitset rows, sort workspaces — built once
// and reused across every round of every trial a worker executes; Reset
// rebinds it to a fresh trial's random source. Each form is
// move-for-move equivalent to its allocating sibling: it consumes the
// same random draws in the same order and plays the same trees, so the
// batched pipeline's artifacts are byte-identical to the per-trial
// pipeline's (the differential tests in reuse_test.go and the campaign
// byte-identity suite pin this).
//
// The trees a reusable adversary returns alias its scratch: they are
// valid only until its next Next call, which is exactly the lifetime
// core.Engine.Step needs. Do not combine them with observers that retain
// round trees (use the allocating forms there).

// Stateless wraps a source-free deterministic adversary (AscendingPath,
// MinGain, a Static schedule, …) as a reusable one: Reset is a no-op
// because the adversary derives everything from the view. It still buys
// the batched pipeline one construction per cell instead of one per
// trial — for Static over a precomputed tree, that is the whole tree.
type Stateless struct{ core.Adversary }

// Reset implements the reusable-adversary contract; source-free
// adversaries have nothing to rebind.
func (Stateless) Reset(*rng.Source) {}

// ReusableRandom is Random with a pooled tree buffer: one uniformly
// random rooted tree per round, generated in place.
type ReusableRandom struct {
	src *rng.Source
	buf tree.Buf
}

// NewReusableRandom returns an unbound ReusableRandom; Reset binds it to
// a trial's source before use.
func NewReusableRandom() *ReusableRandom { return &ReusableRandom{} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *ReusableRandom) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary.
func (r *ReusableRandom) Next(v core.View) *tree.Tree {
	return tree.RandomInto(&r.buf, v.N(), r.src)
}

// ReusableRandomPath is RandomPath with a pooled tree buffer.
type ReusableRandomPath struct {
	src *rng.Source
	buf tree.Buf
}

// NewReusableRandomPath returns an unbound ReusableRandomPath.
func NewReusableRandomPath() *ReusableRandomPath { return &ReusableRandomPath{} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *ReusableRandomPath) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary.
func (r *ReusableRandomPath) Next(v core.View) *tree.Tree {
	return tree.RandomPathInto(&r.buf, v.N(), r.src)
}

// ReusableKLeaves is KLeaves with a pooled tree buffer.
type ReusableKLeaves struct {
	k   int
	src *rng.Source
	buf tree.Buf
}

// NewReusableKLeaves returns an unbound ReusableKLeaves playing trees
// with exactly k leaves.
func NewReusableKLeaves(k int) *ReusableKLeaves { return &ReusableKLeaves{k: k} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *ReusableKLeaves) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary. Like KLeaves it returns nil (failing
// the run) if k is infeasible for the engine's n.
func (r *ReusableKLeaves) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithLeavesInto(&r.buf, v.N(), r.k, r.src)
	if err != nil {
		return nil
	}
	return t
}

// ReusableKInner is KInner with a pooled tree buffer.
type ReusableKInner struct {
	k   int
	src *rng.Source
	buf tree.Buf
}

// NewReusableKInner returns an unbound ReusableKInner playing trees with
// exactly k inner nodes.
func NewReusableKInner(k int) *ReusableKInner { return &ReusableKInner{k: k} }

// Reset rebinds the adversary to a fresh trial's source.
func (r *ReusableKInner) Reset(src *rng.Source) { r.src = src }

// Next implements core.Adversary. Like KInner it returns nil (failing
// the run) if k is infeasible for the engine's n.
func (r *ReusableKInner) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithInnerInto(&r.buf, v.N(), r.k, r.src)
	if err != nil {
		return nil
	}
	return t
}

// countingSortByAsc stably sorts order (a permutation of [0,n)) by
// ascending key[v], using bucket as counting-sort scratch (grown to
// maxKey+2). A stable sort by one key has a unique result, so this
// reproduces sort.SliceStable's order exactly — the scratch adversaries
// must play the same paths their allocating siblings do — without
// reflection or allocation.
func countingSortByAsc(order, tmp []int, key []int, bucket *[]int, maxKey int) {
	buckets := tree.Grow(bucket, maxKey+2)
	for i := range buckets {
		buckets[i] = 0
	}
	for _, v := range order {
		buckets[key[v]+1]++
	}
	for i := 0; i < maxKey+1; i++ {
		buckets[i+1] += buckets[i]
	}
	copy(tmp, order)
	for _, v := range tmp {
		order[buckets[key[v]]] = v
		buckets[key[v]]++
	}
}

// ReusableAscendingPath is AscendingPath with pooled sort scratch and
// tree buffer: each round it plays the same ascending-heard-count path
// AscendingPath would, built in place.
type ReusableAscendingPath struct {
	buf                        tree.Buf
	counts, order, tmp, bucket []int
}

// NewReusableAscendingPath returns a reusable AscendingPath.
func NewReusableAscendingPath() *ReusableAscendingPath { return &ReusableAscendingPath{} }

// Reset implements the reusable-adversary contract (AscendingPath is
// source-free).
func (*ReusableAscendingPath) Reset(*rng.Source) {}

// Next implements core.Adversary.
func (a *ReusableAscendingPath) Next(v core.View) *tree.Tree {
	n := v.N()
	counts := tree.Grow(&a.counts, n)
	order := tree.Grow(&a.order, n)
	tmp := tree.Grow(&a.tmp, n)
	for i := 0; i < n; i++ {
		counts[i] = v.Heard(i).Count()
		order[i] = i
	}
	countingSortByAsc(order, tmp, counts, &a.bucket, n)
	return tree.PathInto(&a.buf, order)
}

// ReusableBlockLeader is BlockLeader with pooled reach-count and sort
// scratch, grown once per n and refilled in place each round instead of
// being reallocated per trial.
type ReusableBlockLeader struct {
	buf                       tree.Buf
	rows                      [][]uint64
	reach, counts, order, tmp []int
	bucket                    []int
}

// NewReusableBlockLeader returns a reusable BlockLeader.
func NewReusableBlockLeader() *ReusableBlockLeader { return &ReusableBlockLeader{} }

// Reset implements the reusable-adversary contract (BlockLeader is
// source-free).
func (*ReusableBlockLeader) Reset(*rng.Source) {}

// Next implements core.Adversary: the same leader choice and path order
// as BlockLeader, with every buffer pooled.
func (a *ReusableBlockLeader) Next(v core.View) *tree.Tree {
	n := v.N()
	reach := tree.Grow(&a.reach, n)
	reachCounts(v, tree.Grow(&a.rows, n), reach)
	counts := tree.Grow(&a.counts, n)
	for y := 0; y < n; y++ {
		counts[y] = v.Heard(y).Count()
	}

	// Leader: incomplete value with maximum reach; ties by id.
	leader := leaderOf(reach)
	if leader < 0 {
		// Every value has completed (broadcast done); any tree is fine.
		// (IdentityPath allocates, but this round is unreachable from the
		// run loop, which stops once broadcast completes.)
		return tree.IdentityPath(n)
	}

	// order = non-knowers of the leader, then knowers, each segment
	// stably sorted by ascending heard count — BlockLeader's exact order.
	order := tree.Grow(&a.order, n)
	tmp := tree.Grow(&a.tmp, n)
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
	countingSortByAsc(order[:nk], tmp[:nk], counts, &a.bucket, n)
	countingSortByAsc(order[nk:], tmp[nk:], counts, &a.bucket, n)
	return tree.PathInto(&a.buf, order)
}

// ReusableTwoPhasePath is TwoPhasePath with both phase trees precomputed
// at construction: Next just selects by round, so a whole cell's trials
// share two trees instead of rebuilding one per round.
type ReusableTwoPhasePath struct {
	switchAt       int
	phase1, phase2 *tree.Tree
}

// NewReusableTwoPhasePath validates like NewTwoPhasePath and precomputes
// the two phase trees.
func NewReusableTwoPhasePath(n, switchAt, prefix int) (*ReusableTwoPhasePath, error) {
	if _, err := NewTwoPhasePath(n, switchAt, prefix); err != nil {
		return nil, err
	}
	order := make([]int, 0, n)
	for i := prefix - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for i := prefix; i < n; i++ {
		order = append(order, i)
	}
	return &ReusableTwoPhasePath{
		switchAt: switchAt,
		phase1:   tree.IdentityPath(n),
		phase2:   tree.MustPath(order),
	}, nil
}

// Reset implements the reusable-adversary contract (the schedule is
// oblivious).
func (*ReusableTwoPhasePath) Reset(*rng.Source) {}

// Next implements core.Adversary.
func (a *ReusableTwoPhasePath) Next(v core.View) *tree.Tree {
	if v.Round() < a.switchAt {
		return a.phase1
	}
	return a.phase2
}
