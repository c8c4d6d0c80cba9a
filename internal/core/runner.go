package core

import (
	"fmt"

	"dyntreecast/internal/tree"
)

// Runner is the allocation-free trial driver of the batched pipeline: it
// owns one reusable Engine and drives adversaries to completion without
// materializing a Result. Its round loop is the only one in the package:
// the package-level Run and BroadcastTime drive a fresh Runner. A warm
// Runner reuses everything via Engine.Reset, so a trial costs only what
// the adversary itself allocates. Each campaign worker owns one Runner
// and serves every trial it executes with it (see DESIGN.md §3d).
//
// A Runner is not safe for concurrent use.
type Runner struct {
	// MaxRounds caps each run's rounds; 0 selects the n²+1 default of the
	// §2 trivial bound, exactly as WithMaxRounds does for Run. It is
	// per-run configuration on a long-lived object: the campaign pool
	// clears it before every batch, so a job closure that wants a
	// specific budget must set it per trial and one that doesn't can
	// never inherit a stale value.
	MaxRounds int
	engine    *Engine
}

// NewRunner returns an empty Runner; its engine is built lazily at the
// first run and resized on demand by Engine.Reset.
func NewRunner() *Runner { return &Runner{} }

// Engine exposes the pooled engine: valid after a run until the next one,
// nil before the first. For observers and tests; treat it as read-only.
func (r *Runner) Engine() *Engine { return r.engine }

func (r *Runner) reset(n int) *Engine {
	if r.engine == nil {
		r.engine = NewEngine(n)
	} else {
		r.engine.Reset(n)
	}
	return r.engine
}

func (r *Runner) budget(n int) int {
	if r.MaxRounds > 0 {
		return r.MaxRounds
	}
	return n*n + 1
}

// Run drives adv from the round-0 state until the goal holds and returns
// the number of rounds applied (the paper's t* for Broadcast).
func (r *Runner) Run(n int, adv Adversary, goal Goal) (int, error) {
	return r.run(n, adv, goal, r.budget(n), nil)
}

// run is the package's one round loop, shared by every driver: it resets
// the pooled engine to n processes and steps adv until the goal holds,
// calling observe (when non-nil) after each round. It returns the rounds
// applied, with an error wrapping ErrMaxRounds once maxRounds rounds have
// not reached the goal, or ErrBadTree when adv returns an unusable tree.
func (r *Runner) run(n int, adv Adversary, goal Goal, maxRounds int, observe func(round int, t *tree.Tree, e *Engine)) (int, error) {
	e := r.reset(n)
	for !e.done(goal) {
		if e.round >= maxRounds {
			return e.round, fmt.Errorf("%w: %s incomplete after %d rounds (n=%d)",
				ErrMaxRounds, goal, e.round, n)
		}
		t := adv.Next(e)
		if t == nil || t.N() != n {
			return e.round, fmt.Errorf("%w: round %d", ErrBadTree, e.round+1)
		}
		e.Step(t)
		if observe != nil {
			observe(e.round, t, e)
		}
	}
	return e.round, nil
}

// BroadcastTime runs adv to broadcast completion on the pooled engine and
// returns t* — the Runner form of the package-level BroadcastTime.
func (r *Runner) BroadcastTime(n int, adv Adversary) (int, error) {
	return r.Run(n, adv, Broadcast)
}

// GossipTime runs adv until every process has heard every value. Like
// gossip.Time, termination is not guaranteed for adaptive adversaries:
// set MaxRounds and handle ErrMaxRounds.
func (r *Runner) GossipTime(n int, adv Adversary) (int, error) {
	return r.Run(n, adv, Gossip)
}

// BothTimes runs adv once toward gossip completion and reports the round
// at which broadcast completed and the round at which gossip completed
// (broadcast is −1 if it never completed within the budget).
func (r *Runner) BothTimes(n int, adv Adversary) (broadcast, gossip int, err error) {
	broadcast = -1
	gossip, err = r.run(n, adv, Gossip, r.budget(n), func(round int, _ *tree.Tree, e *Engine) {
		if broadcast < 0 && e.BroadcastDone() {
			broadcast = round
		}
	})
	return broadcast, gossip, err
}
