// Package consensus implements FloodMin, the canonical flooding consensus
// protocol, on top of the dynamic-rooted-tree broadcast engine.
//
// The paper's introduction notes the "intriguing connections" between
// broadcast and consensus, and its related-work section traces the
// heard-of model of Charron-Bost and Schiper; this package makes the
// connection executable. Each process proposes a value; knowledge spreads
// exactly as in the broadcast model; a process decides the minimum
// proposal among all n processes as soon as it has heard from everyone
// (its heard set is full), at which point that minimum is fully
// determined.
//
// Properties (tested in this package):
//
//   - Validity: every decision is some process's proposal.
//   - Agreement: all decisions are equal (trivially, min over all
//     proposals — the decision rule never acts on partial information).
//   - Irrevocability: a decided process never changes its decision.
//   - Termination: equivalent to gossip completion, hence guaranteed
//     under oblivious random adversaries but NOT against adaptive
//     adversaries (the gossip staller also stalls FloodMin forever) —
//     a concrete face of the consensus impossibility discussions in the
//     heard-of literature.
//
// The deliberately unsafe variant EagerFloodMin decides as soon as a
// process has heard a majority; FindDisagreement exhibits adversary
// schedules under which eager deciders split — the demonstration of why
// the full-information rule is needed in this adversarial model.
package consensus

import (
	"errors"
	"fmt"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// Result reports a FloodMin run.
type Result struct {
	// Decision is the common decided value (valid only if Terminated).
	Decision int
	// Rounds is the round at which the LAST process decided when
	// Terminated, and the number of rounds executed otherwise.
	Rounds int
	// FirstDecision is the round at which the first process decided.
	FirstDecision int
	// Terminated reports whether every process decided within budget.
	Terminated bool
}

// ErrNoProposals is returned when proposals is empty or mismatched.
var ErrNoProposals = errors.New("consensus: need exactly n proposals")

// FloodMin runs the protocol under adv until every process has decided,
// or the round budget (core.WithMaxRounds, default n²+1) is exhausted —
// in which case it returns the partial result and an error wrapping
// core.ErrMaxRounds, since adaptive adversaries can prevent termination.
func FloodMin(proposals []int, adv core.Adversary, opts ...core.Option) (Result, error) {
	n := len(proposals)
	if n == 0 {
		return Result{}, ErrNoProposals
	}
	res := Result{FirstDecision: -1}
	min := proposals[0]
	for _, p := range proposals {
		if p < min {
			min = p
		}
	}
	decided := make([]bool, n)
	remaining := n

	opts = append(opts, core.WithObserver(func(round int, _ *tree.Tree, e *core.Engine) {
		for y := 0; y < n; y++ {
			if !decided[y] && e.Heard(y).Full() {
				decided[y] = true
				remaining--
				if res.FirstDecision < 0 {
					res.FirstDecision = round
				}
				res.Rounds = round
			}
		}
	}))

	if run, err := core.Run(n, adv, core.Gossip, opts...); err != nil {
		res.Rounds = run.Rounds
		return res, fmt.Errorf("consensus: FloodMin did not terminate: %w", err)
	}
	if n == 1 {
		// Round 0 is already gossip-complete; the observer never fires.
		res.FirstDecision, res.Rounds = 0, 0
	}
	if remaining > 0 && n > 1 {
		// Unreachable: gossip completion implies every heard set full.
		return res, fmt.Errorf("consensus: internal error: %d undecided after gossip", remaining)
	}
	res.Decision = min
	res.Terminated = true
	return res, nil
}

// EagerResult reports an EagerFloodMin run, which can violate agreement.
type EagerResult struct {
	// Decisions[y] is process y's decided value, or -1 if undecided.
	Decisions []int
	// Rounds is the number of rounds executed.
	Rounds int
}

// EagerFloodMin is the deliberately unsafe variant: process y decides
// min(K_y proposals) as soon as |K_y| ≥ quorum. With quorum < n, two
// processes can decide different minima. It runs until every process has
// decided or the budget trips.
func EagerFloodMin(proposals []int, quorum int, adv core.Adversary, opts ...core.Option) (EagerResult, error) {
	n := len(proposals)
	if n == 0 {
		return EagerResult{}, ErrNoProposals
	}
	if quorum < 1 || quorum > n {
		return EagerResult{}, fmt.Errorf("consensus: quorum %d out of [1,%d]", quorum, n)
	}
	res := EagerResult{Decisions: make([]int, n)}
	for y := range res.Decisions {
		res.Decisions[y] = -1
	}
	remaining := n
	opts = append(opts, core.WithObserver(func(round int, _ *tree.Tree, e *core.Engine) {
		for y := 0; y < n; y++ {
			if res.Decisions[y] >= 0 {
				continue
			}
			k := e.Heard(y)
			if k.Count() >= quorum {
				min := -1
				k.ForEach(func(x int) bool {
					if min < 0 || proposals[x] < min {
						min = proposals[x]
					}
					return true
				})
				res.Decisions[y] = min
				remaining--
			}
		}
		res.Rounds = round
	}))
	// Gossip goal guarantees everyone eventually crosses any quorum under
	// a terminating adversary; budget guards the rest.
	if _, err := core.Run(n, adv, core.Gossip, opts...); err != nil {
		if remaining > 0 {
			return res, fmt.Errorf("consensus: eager run incomplete: %w", err)
		}
	}
	return res, nil
}

// Agreement reports whether all decided values in an eager run coincide.
func (r EagerResult) Agreement() bool {
	first := -1
	for _, d := range r.Decisions {
		if d < 0 {
			continue
		}
		if first < 0 {
			first = d
		} else if d != first {
			return false
		}
	}
	return true
}

// FindDisagreement searches for an adversary schedule under which
// EagerFloodMin with the given quorum violates agreement on n processes
// (proposals = process ids). It returns the witnessing schedule, or nil
// if none was found within trials. The witness for quorum ≤ n−1 is
// usually found instantly: a path delivers different prefixes to
// different processes.
func FindDisagreement(n, quorum, trials int, seedStart uint64) []*tree.Tree {
	proposals := make([]int, n)
	for i := range proposals {
		proposals[i] = i
	}
	// Deterministic candidate first: the identity path gives process 1
	// the set {0,1} and process n−1 the set {n−2,n−1}; with quorum 2 they
	// decide 0 and n−2 respectively.
	candidates := [][]*tree.Tree{
		{tree.IdentityPath(n)},
	}
	for s := uint64(0); s < uint64(trials); s++ {
		candidates = append(candidates, randomSchedule(n, 2*n, seedStart+s))
	}
	for _, sched := range candidates {
		adv := replay{sched}
		res, err := EagerFloodMin(proposals, quorum, adv, core.WithMaxRounds(4*n*n))
		if err != nil {
			continue
		}
		if !res.Agreement() {
			return sched
		}
	}
	return nil
}

// replay repeats the last tree after the schedule is exhausted.
type replay struct{ trees []*tree.Tree }

func (r replay) Next(v core.View) *tree.Tree {
	if len(r.trees) == 0 {
		return nil
	}
	if i := v.Round(); i < len(r.trees) {
		return r.trees[i]
	}
	return r.trees[len(r.trees)-1]
}

func randomSchedule(n, rounds int, seed uint64) []*tree.Tree {
	src := newSource(seed)
	out := make([]*tree.Tree, rounds)
	for i := range out {
		out[i] = tree.Random(n, src)
	}
	return out
}

// newSource isolates the rng import to one spot.
func newSource(seed uint64) *rng.Source { return rng.New(seed) }
