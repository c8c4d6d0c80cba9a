package adversary

import (
	"errors"
	"reflect"
	"testing"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

func TestStaticPathBroadcast(t *testing.T) {
	for _, n := range []int{2, 5, 12} {
		got, err := core.BroadcastTime(n, Static{Tree: tree.IdentityPath(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != bounds.StaticPath(n) {
			t.Errorf("n=%d: static path t* = %d, want %d", n, got, n-1)
		}
	}
}

func TestFuncAdapter(t *testing.T) {
	calls := 0
	adv := Func(func(v core.View) *tree.Tree {
		calls++
		return tree.IdentityPath(v.N())
	})
	if _, err := core.BroadcastTime(4, adv); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("Func called %d times, want 3", calls)
	}
}

func TestCycleAlternates(t *testing.T) {
	a := tree.IdentityPath(3)
	b := tree.MustPath([]int{2, 1, 0})
	var seen []*tree.Tree
	_, err := core.Run(3, Cycle{Trees: []*tree.Tree{a, b}}, core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			seen = append(seen, tr)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("run too short: %d rounds", len(seen))
	}
	if seen[0] != a || seen[1] != b {
		t.Error("Cycle did not alternate trees in order")
	}
}

func TestCycleEmptyFailsRun(t *testing.T) {
	_, err := core.Run(3, Cycle{}, core.Broadcast)
	if !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

func TestReplayRepeatsLast(t *testing.T) {
	// Schedule of one reversed path; replay must repeat it and finish in
	// n−1 rounds.
	rev := tree.MustPath([]int{3, 2, 1, 0})
	got, err := core.BroadcastTime(4, Replay{Trees: []*tree.Tree{rev}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("t* = %d, want 3", got)
	}
}

func TestRandomAdversaryWithinBounds(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{2, 8, 32} {
		for trial := 0; trial < 5; trial++ {
			got, err := core.BroadcastTime(n, NewRandom(src))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := bounds.CheckSandwich(n, got); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}

func TestRandomPathAdversaryWithinBounds(t *testing.T) {
	src := rng.New(8)
	for _, n := range []int{2, 8, 32} {
		got, err := core.BroadcastTime(n, NewRandomPath(src))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestKLeavesPlaysOnlyKLeafTrees(t *testing.T) {
	src := rng.New(9)
	const n, k = 12, 3
	_, err := core.Run(n, NewKLeaves(k, src), core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			if got := tr.NumLeaves(); got != k {
				t.Errorf("round %d: tree has %d leaves, want %d", r, got, k)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLeavesInfeasibleFailsRun(t *testing.T) {
	src := rng.New(9)
	_, err := core.Run(3, NewKLeaves(5, src), core.Broadcast)
	if !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

// TestKInnerInfeasibleFailsRun: like KLeaves, KInner returns no tree
// when k is infeasible at the engine's n, also after a Reset.
func TestKInnerInfeasibleFailsRun(t *testing.T) {
	adv := NewKInner(9, nil)
	adv.Reset(rng.New(1))
	if tr := adv.Next(core.NewEngine(4)); tr != nil {
		t.Errorf("infeasible k returned tree %v", tr)
	}
	if _, err := core.BroadcastTime(4, adv); !errors.Is(err, core.ErrBadTree) {
		t.Fatalf("err = %v, want ErrBadTree", err)
	}
}

func TestKInnerPlaysOnlyKInnerTrees(t *testing.T) {
	src := rng.New(10)
	const n, k = 12, 4
	_, err := core.Run(n, NewKInner(k, src), core.Broadcast,
		core.WithObserver(func(r int, tr *tree.Tree, e *core.Engine) {
			if got := tr.NumInner(); got != k {
				t.Errorf("round %d: tree has %d inner nodes, want %d", r, got, k)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAscendingPathWithinBounds(t *testing.T) {
	for _, n := range []int{2, 6, 20, 50} {
		got, err := core.BroadcastTime(n, &AscendingPath{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if got < bounds.StaticPath(n)/2 {
			t.Errorf("n=%d: AscendingPath t* = %d suspiciously low", n, got)
		}
	}
}

func TestDescendingPathFasterThanAscending(t *testing.T) {
	// DescendingPath accelerates broadcast; AscendingPath delays it.
	for _, n := range []int{8, 24} {
		asc, err := core.BroadcastTime(n, &AscendingPath{})
		if err != nil {
			t.Fatal(err)
		}
		desc, err := core.BroadcastTime(n, &DescendingPath{})
		if err != nil {
			t.Fatal(err)
		}
		if desc > asc {
			t.Errorf("n=%d: descending (%d) slower than ascending (%d)", n, desc, asc)
		}
	}
}

func TestBlockLeaderFreezesLeader(t *testing.T) {
	// After a BlockLeader round, the pre-round leader's reach must not
	// have grown.
	e := core.NewEngine(8)
	e.Step(tree.IdentityPath(8)) // create a leader
	adv := &BlockLeader{}
	for r := 0; r < 10 && !e.BroadcastDone(); r++ {
		leader, before := leaderReach(e)
		e.Step(adv.Next(e))
		after := reachOf(e, leader)
		if after != before {
			t.Fatalf("round %d: leader %d reach grew %d -> %d", r, leader, before, after)
		}
	}
}

// reachOf counts |R_x| bit by bit: the per-bit model the tile-transpose
// reach counts of BlockLeader are checked against.
func reachOf(v core.View, x int) int {
	c := 0
	for y := 0; y < v.N(); y++ {
		if v.Heard(y).Test(x) {
			c++
		}
	}
	return c
}

func leaderReach(v core.View) (int, int) {
	leader, best := -1, -1
	for x := 0; x < v.N(); x++ {
		if c := reachOf(v, x); c < v.N() && c > best {
			leader, best = x, c
		}
	}
	return leader, best
}

// TestReachCountsMatchPerBitModel pins the tile-transpose reach counts
// and the leader BlockLeader picks from them against the per-bit model,
// on packed and matrix views at sizes off and on the 64-bit word edges,
// every round of random-tree runs.
func TestReachCountsMatchPerBitModel(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		src := rng.New(uint64(n))
		e, m := core.NewEngine(n), core.NewMatrixEngine(n)
		for round := 0; round < 2*n && !e.BroadcastDone(); round++ {
			for _, v := range []core.View{e, m} {
				reach := make([]int, n)
				reachCounts(v, make([][]uint64, n), reach)
				for x := range reach {
					if want := reachOf(v, x); reach[x] != want {
						t.Fatalf("n=%d round %d: |R_%d| = %d, per-bit model %d", n, round, x, reach[x], want)
					}
				}
				if want, _ := leaderReach(v); leaderOf(reach) != want {
					t.Fatalf("n=%d round %d: leader %d, per-bit model %d", n, round, leaderOf(reach), want)
				}
			}
			tr := tree.Random(n, src)
			e.Step(tr)
			m.Step(tr)
		}
	}
}

func TestBlockLeaderWithinBounds(t *testing.T) {
	for _, n := range []int{2, 6, 20, 50} {
		got, err := core.BroadcastTime(n, &BlockLeader{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := bounds.CheckSandwich(n, got); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestTwoPhasePath(t *testing.T) {
	const n = 10
	adv, err := NewTwoPhasePath(n, n/2, n/2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.BroadcastTime(n, adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := bounds.CheckSandwich(n, got); err != nil {
		t.Error(err)
	}
	// Note: naive phase switching is WEAKER than the static path (the
	// reversed prefix creates a fresh fast spreader); the schedule exists
	// as a documented negative result, so only the sandwich is asserted.
	if got < 1 {
		t.Errorf("two-phase t* = %d, want >= 1", got)
	}
}

func TestTwoPhasePathWrongNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	adv, err := NewTwoPhasePath(7, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = core.BroadcastTime(5, adv)
}

// TestTwoPhasePathValidation: the constructor rejects every malformed
// shape, and a valid schedule plays the identity path for switchAt
// rounds, then the path with its first prefix vertices reversed.
func TestTwoPhasePathValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 1, 0}, {4, -1, 2}, {4, 1, 5}, {4, 1, -1}} {
		if _, err := NewTwoPhasePath(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewTwoPhasePath%v accepted", bad)
		}
	}
	for _, n := range []int{4, 16, 33} {
		for _, cfg := range [][2]int{{n / 2, n / 2}, {1, n}, {0, 1}} {
			adv, err := NewTwoPhasePath(n, cfg[0], cfg[1])
			if err != nil {
				t.Fatal(err)
			}
			phase2 := make([]int, 0, n)
			for i := cfg[1] - 1; i >= 0; i-- {
				phase2 = append(phase2, i)
			}
			for i := cfg[1]; i < n; i++ {
				phase2 = append(phase2, i)
			}
			_, err = core.Run(n, adv, core.Broadcast, core.WithObserver(func(r int, tr *tree.Tree, _ *core.Engine) {
				want := tree.IdentityPath(n)
				if r > cfg[0] {
					want = tree.MustPath(phase2)
				}
				if !reflect.DeepEqual(tr.Parents(), want.Parents()) {
					t.Fatalf("n=%d cfg=%v round %d: played %v, want %v", n, cfg, r, tr, want)
				}
			}))
			if err != nil {
				t.Fatalf("n=%d cfg=%v: %v", n, cfg, err)
			}
		}
	}
}
