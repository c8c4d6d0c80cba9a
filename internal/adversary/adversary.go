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
// bit-for-bit from seeds. The families the campaign layer runs also take
// Reset(src), which rebinds one instance to a fresh trial's source: after
// it the instance plays exactly what a freshly constructed one would,
// while its per-n buffers stay. Their trees live in those buffers, valid
// until the next Next call (see core.Adversary).
//
// Paper anchors: the portfolio feeds the best-measured curves of Figure 1
// (experiment E1) and the Theorem 3.1 sandwich checks (E2); the static
// path realizes the §2 equality t* = n−1 (E3); KLeaves/KInner reproduce
// the Zeiner et al. restricted regimes (E5); and the adaptive heuristics
// drive the matrix-evolution traces of E8.
package adversary

import (
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

// source is the trial source a random family draws from. Its Reset, the
// second half of the campaign adversary contract, rebinds the adversary
// to a fresh trial's source while its buffers stay.
type source struct{ src *rng.Source }

// Reset rebinds the adversary to a fresh trial's source.
func (s *source) Reset(src *rng.Source) { s.src = src }

// sourceFree supplies the no-op Reset of adversaries that draw no
// randomness and carry nothing from one run into the next, so they need
// no Reset to play exactly what a fresh instance would.
type sourceFree struct{}

// Reset implements the campaign adversary contract; there is no source
// to rebind.
func (sourceFree) Reset(*rng.Source) {}

// Stateless wraps a source-free adversary that keeps no state between
// rounds (Static, Replay, MinGain, …) with the no-op Reset of the campaign
// adversary contract. It still buys the batched pipeline one construction
// per cell instead of one per trial — for Static over a precomputed tree,
// that is the whole tree.
type Stateless struct {
	core.Adversary
	sourceFree
}

// Random plays an independent uniformly random rooted tree each round,
// generated in place in one pooled tree buffer.
type Random struct {
	source
	buf tree.Buf
}

// NewRandom returns a Random drawing from src. src may be nil if Reset
// binds a source before the first round.
func NewRandom(src *rng.Source) *Random { return &Random{source: source{src}} }

// Next implements core.Adversary.
func (r *Random) Next(v core.View) *tree.Tree { return tree.RandomInto(&r.buf, v.N(), r.src) }

// RandomPath plays an independent uniformly random directed path each
// round, generated in place in one pooled tree buffer.
type RandomPath struct {
	source
	buf tree.Buf
}

// NewRandomPath returns a RandomPath drawing from src (nil until Reset).
func NewRandomPath(src *rng.Source) *RandomPath { return &RandomPath{source: source{src}} }

// Next implements core.Adversary.
func (r *RandomPath) Next(v core.View) *tree.Tree {
	return tree.RandomPathInto(&r.buf, v.N(), r.src)
}

// KLeaves plays random trees with exactly k leaves — the k-leaf restricted
// adversary class of Zeiner et al., for which broadcast time is O(k·n).
type KLeaves struct {
	source
	k   int
	buf tree.Buf
}

// NewKLeaves returns a KLeaves playing k-leaf trees drawn from src (nil
// until Reset).
func NewKLeaves(k int, src *rng.Source) *KLeaves { return &KLeaves{source: source{src}, k: k} }

// Next implements core.Adversary. It returns nil (failing the run) if k
// is infeasible for the engine's n.
func (a *KLeaves) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithLeavesInto(&a.buf, v.N(), a.k, a.src)
	if err != nil {
		return nil
	}
	return t
}

// KInner plays random trees with exactly k inner nodes — the k-inner-node
// restricted adversary class of Zeiner et al.
type KInner struct {
	source
	k   int
	buf tree.Buf
}

// NewKInner returns a KInner playing trees with k inner nodes drawn from
// src (nil until Reset).
func NewKInner(k int, src *rng.Source) *KInner { return &KInner{source: source{src}, k: k} }

// Next implements core.Adversary. It returns nil (failing the run) if k
// is infeasible for the engine's n.
func (a *KInner) Next(v core.View) *tree.Tree {
	t, err := tree.RandomWithInnerInto(&a.buf, v.N(), a.k, a.src)
	if err != nil {
		return nil
	}
	return t
}

// countingSortByAsc stably sorts order (a permutation of [0,n)) by
// ascending key[v], using bucket as counting-sort scratch (grown to
// maxKey+2). A stable sort by one key has a unique result, so this is
// sort.SliceStable's order exactly, without reflection or allocation.
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
