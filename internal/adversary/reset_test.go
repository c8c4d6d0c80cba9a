package adversary

import (
	"reflect"
	"testing"

	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// resettable is the campaign adversary contract (campaign.ReusableAdversary,
// redeclared to keep this package's tests free of a campaign dependency).
type resettable interface {
	core.Adversary
	Reset(src *rng.Source)
}

// playedTrees runs adv to broadcast on n processes and returns the parent
// array of every round's tree.
func playedTrees(t *testing.T, n int, adv core.Adversary) [][]int {
	t.Helper()
	var played [][]int
	_, err := core.Run(n, adv, core.Broadcast, core.WithObserver(func(_ int, tr *tree.Tree, _ *core.Engine) {
		played = append(played, append([]int(nil), tr.Parents()...))
	}))
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return played
}

// TestResetMatchesFreshAcrossN pins the stock adversaries' Reset: one
// instance, Reset per trial while n shrinks and grows (16 → 5 → 31) so
// its buffers are regrown and reused at other sizes, plays the same trees
// as a freshly constructed instance per trial.
func TestResetMatchesFreshAcrossN(t *testing.T) {
	stale := func() resettable {
		a, err := NewStaleAscendingPath(2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for name, build := range map[string]func() resettable{
		"random":          func() resettable { return NewRandom(nil) },
		"random-path":     func() resettable { return NewRandomPath(nil) },
		"k-leaves":        func() resettable { return NewKLeaves(3, nil) },
		"k-inner":         func() resettable { return NewKInner(2, nil) },
		"ascending-path":  func() resettable { return &AscendingPath{} },
		"descending-path": func() resettable { return &DescendingPath{} },
		"block-leader":    func() resettable { return &BlockLeader{} },
		"min-gain":        func() resettable { return Stateless{Adversary: MinGain{}} },
		"stale-ascending": stale,
	} {
		t.Run(name, func(t *testing.T) {
			reused := build()
			for _, n := range []int{16, 5, 31} {
				for trial := 0; trial < 4; trial++ {
					seed := uint64(n*1000 + trial)
					fresh := build()
					fresh.Reset(rng.New(seed))
					want := playedTrees(t, n, fresh)
					reused.Reset(rng.New(seed))
					if got := playedTrees(t, n, reused); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d trial %d: reused instance played %v, fresh %v", n, trial, got, want)
					}
				}
			}
		})
	}
}
