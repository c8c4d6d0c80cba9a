package consensus

import (
	"errors"
	"flag"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dyntreecast/internal/adversary"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gossip"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestFloodMinDecidesGlobalMin(t *testing.T) {
	tests := []struct {
		name      string
		proposals []int
		want      int
	}{
		{"distinct", []int{5, 3, 9, 7}, 3},
		{"duplicates", []int{2, 2, 2}, 2},
		{"minAtEnd", []int{9, 8, 7, 1}, 1},
		{"negative", []int{0, -4, 3}, -4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := rng.New(1)
			res, err := FloodMin(tt.proposals, adversary.NewRandom(src))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatal("not terminated")
			}
			if res.Decision != tt.want {
				t.Errorf("Decision = %d, want %d", res.Decision, tt.want)
			}
			if res.FirstDecision < 1 || res.Rounds < res.FirstDecision {
				t.Errorf("decision rounds inconsistent: first=%d last=%d",
					res.FirstDecision, res.Rounds)
			}
		})
	}
}

func TestFloodMinSingleProcess(t *testing.T) {
	res, err := FloodMin([]int{42}, adversary.Static{Tree: tree.MustNew([]int{0})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Decision != 42 || res.Rounds != 0 {
		t.Errorf("n=1 result: %+v", res)
	}
}

func TestFloodMinEmptyProposals(t *testing.T) {
	if _, err := FloodMin(nil, &adversary.AscendingPath{}); !errors.Is(err, ErrNoProposals) {
		t.Fatalf("err = %v, want ErrNoProposals", err)
	}
}

func TestFloodMinStallsUnderAdaptiveAdversary(t *testing.T) {
	// The gossip staller prevents FloodMin termination forever: the
	// consensus impossibility face of the model.
	_, err := FloodMin([]int{3, 1, 4}, gossip.Staller{}, core.WithMaxRounds(100))
	if !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// quickSeed replays a property check: every check logs the seed of its
// input stream, and -quickseed=S reruns it on that stream.
var quickSeed = flag.Int64("quickseed", 1, "seed of the testing/quick input streams")

// quickConfig returns a quick.Check config drawing its inputs from a
// seeded, logged stream.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick.Check input seed %d (replay with -quickseed=%d)", *quickSeed, *quickSeed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(*quickSeed))}
}

// floodMinCase draws a random instance: n in [2,11] and proposals in
// [0,100), so duplicates and every small n, n = 2 included, occur.
func floodMinCase(seed uint64) (*rng.Source, []int) {
	src := rng.New(seed)
	n := 2 + src.Intn(10)
	proposals := make([]int, n)
	for i := range proposals {
		proposals[i] = src.Intn(100)
	}
	return src, proposals
}

// TestFloodMinValidityProperty: whenever FloodMin terminates, it decides
// the minimum proposal, which is some process's proposal. Termination
// itself is not part of the property — a uniformly random adversary can
// repeat the same root past any fixed budget (at n = 2, two equal roots
// in a row already stall gossip) — so a run that exhausts the default
// n²+1 budget must instead report exactly that: not terminated, an error
// wrapping core.ErrMaxRounds, and the rounds it executed.
func TestFloodMinValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src, proposals := floodMinCase(seed)
		n := len(proposals)
		res, err := FloodMin(proposals, adversary.NewRandom(src))
		if err != nil || !res.Terminated {
			return errors.Is(err, core.ErrMaxRounds) && !res.Terminated && res.Rounds == n*n+1
		}
		return slices.Contains(proposals, res.Decision) && res.Decision == slices.Min(proposals)
	}
	if err := quick.Check(f, quickConfig(t, 200)); err != nil {
		t.Error(err)
	}
}

// TestFloodMinTerminatesUnderRandomWithinBudget checks termination on its
// own, under an explicit budget of 64n rounds. At n = 2 a random
// adversary stalls gossip for R rounds with probability 2^(1−R); over
// 20000 instances drawn as floodMinCase draws them, the slowest gossip
// took 18 rounds, so the budget leaves a wide margin at every n drawn.
func TestFloodMinTerminatesUnderRandomWithinBudget(t *testing.T) {
	f := func(seed uint64) bool {
		src, proposals := floodMinCase(seed)
		res, err := FloodMin(proposals, adversary.NewRandom(src), core.WithMaxRounds(64*len(proposals)))
		return err == nil && res.Terminated && res.Rounds <= 64*len(proposals)
	}
	if err := quick.Check(f, quickConfig(t, 200)); err != nil {
		t.Error(err)
	}
}

// TestFloodMinNonTerminatingReportsRoundsExecuted: a run that exhausts
// its budget reports the rounds it executed, not the round of its last
// decision. With a static star rooted at 0 on two processes, process 1
// decides in round 1 and process 0 never does.
func TestFloodMinNonTerminatingReportsRoundsExecuted(t *testing.T) {
	star, err := tree.Star(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FloodMin([]int{7, 3}, adversary.Static{Tree: star}, core.WithMaxRounds(5))
	if !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if res.Terminated || res.Rounds != 5 || res.FirstDecision != 1 {
		t.Errorf("result = %+v, want not terminated after 5 rounds, first decision in round 1", res)
	}
}

func TestEagerFloodMinFullQuorumIsSafe(t *testing.T) {
	// quorum = n is exactly FloodMin: always agreement.
	src := rng.New(2)
	proposals := []int{4, 0, 9, 2, 6}
	res, err := EagerFloodMin(proposals, 5, adversary.NewRandom(src))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement() {
		t.Error("full-quorum eager run disagreed")
	}
	for _, d := range res.Decisions {
		if d != 0 {
			t.Errorf("decisions = %v, want all 0", res.Decisions)
			break
		}
	}
}

func TestEagerFloodMinQuorumValidation(t *testing.T) {
	for _, q := range []int{0, 4} {
		if _, err := EagerFloodMin([]int{1, 2, 3}, q, &adversary.AscendingPath{}); err == nil {
			t.Errorf("quorum %d accepted for n=3", q)
		}
	}
	if _, err := EagerFloodMin(nil, 1, &adversary.AscendingPath{}); !errors.Is(err, ErrNoProposals) {
		t.Errorf("empty proposals: %v", err)
	}
}

func TestEagerFloodMinPartialQuorumDisagrees(t *testing.T) {
	// The identity path with quorum 2: process 1 hears {0,1} and decides
	// 0; process 3 hears {2,3} and decides 2. Agreement violated.
	proposals := []int{0, 1, 2, 3}
	res, err := EagerFloodMin(proposals, 2,
		adversary.Static{Tree: tree.IdentityPath(4)}, core.WithMaxRounds(64))
	// The run may or may not terminate fully (static path stalls gossip),
	// but decisions happen early regardless.
	_ = err
	if res.Agreement() {
		t.Fatalf("expected disagreement, decisions = %v", res.Decisions)
	}
}

func TestFindDisagreement(t *testing.T) {
	sched := FindDisagreement(5, 2, 3, 1)
	if sched == nil {
		t.Fatal("no disagreement witness found for quorum 2, n 5")
	}
	// Replay the witness and confirm it indeed splits deciders.
	proposals := []int{0, 1, 2, 3, 4}
	res, _ := EagerFloodMin(proposals, 2, replay{sched}, core.WithMaxRounds(100))
	if res.Agreement() {
		t.Error("witness schedule did not reproduce the disagreement")
	}
}

func TestFindDisagreementFullQuorumFindsNothing(t *testing.T) {
	if sched := FindDisagreement(4, 4, 2, 1); sched != nil {
		t.Error("found a 'disagreement' for the safe full quorum")
	}
}

func TestAgreementHelper(t *testing.T) {
	if !(EagerResult{Decisions: []int{-1, 2, 2}}).Agreement() {
		t.Error("agreeing run reported disagreement")
	}
	if (EagerResult{Decisions: []int{1, 2}}).Agreement() {
		t.Error("disagreeing run reported agreement")
	}
	if !(EagerResult{Decisions: []int{-1, -1}}).Agreement() {
		t.Error("empty decisions should vacuously agree")
	}
}
