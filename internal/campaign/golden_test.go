package campaign

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// updateGolden rewrites testdata/golden.sha256 from the current code. The
// committed digests were produced by the per-trial pipeline the batched
// one replaced, so rewriting them is only ever right for a deliberate
// change of artifact bytes.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const goldenPath = "testdata/golden.sha256"

// goldenSpec is the grid the golden digests pin: every built-in family,
// including the search-backed ones at small n, with the k and stale axes
// expanded and one explicit two-phase shape besides the n/2 default.
// Under the gossip goal the adaptive families and the replayed schedules
// stall, so that artifact also pins their ErrMaxRounds error strings.
func goldenSpec(goal string) Spec {
	return Spec{
		Name: "golden-" + goal,
		Scenarios: []Scenario{
			{Adversary: "static-path"},
			{Adversary: "random-tree"},
			{Adversary: "random-path"},
			{Adversary: "ascending-path"},
			{Adversary: "block-leader"},
			{Adversary: "min-gain"},
			{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}},
			{Adversary: "k-inner", Params: map[string]any{"k": []any{2, 3}}},
			{Adversary: "two-phase-path"},
			{Adversary: "two-phase-path", Params: map[string]any{"switch_at": 2, "prefix": 3}},
			{Adversary: "stale-ascending", Params: map[string]any{"lag": []any{0, 2}}},
			{Adversary: "beam-search", Params: map[string]any{"width": 3, "random_moves": 2, "random_trees": 2}},
			{Adversary: "deepest-line", Params: map[string]any{"budget": 200, "width": 3}},
		},
		Ns:     []int{5, 6, 12},
		Trials: 4,
		Seed:   2022,
		Goal:   goal,
	}
}

var goldenGoals = []string{"broadcast", "gossip"}

// artifactDigests returns the sha256 of the outcome's WriteJSON and
// WriteJSONL bytes, keyed "<spec name>.json" and "<spec name>.jsonl".
func artifactDigests(t *testing.T, o *Outcome) map[string]string {
	t.Helper()
	var js, jl bytes.Buffer
	if err := o.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	return map[string]string{
		o.Spec.Name + ".json":  sum(js.Bytes()),
		o.Spec.Name + ".jsonl": sum(jl.Bytes()),
	}
}

var (
	goldenOnce sync.Once
	goldenSums map[string]string
	goldenErr  error
)

// loadGolden parses testdata/golden.sha256: one "<name> <hex digest>" per
// line.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	goldenOnce.Do(func() {
		f, err := os.Open(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		defer f.Close()
		goldenSums = map[string]string{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
			if !ok {
				goldenErr = fmt.Errorf("%s: malformed line %q", goldenPath, sc.Text())
				return
			}
			goldenSums[name] = sum
		}
		goldenErr = sc.Err()
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenSums
}

// checkGolden fails t unless both artifact digests of o match the
// committed golden ones.
func checkGolden(t *testing.T, label string, o *Outcome) {
	t.Helper()
	want := loadGolden(t)
	for name, got := range artifactDigests(t, o) {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest for %s", label, name)
		} else if got != w {
			t.Errorf("%s: %s digest %s, golden %s", label, name, got, w)
		}
	}
}

// TestGoldenArtifacts pins the artifact bytes of the golden grid, for
// both goals, to the digests committed in testdata. Run with -update to
// rewrite them (see updateGolden).
func TestGoldenArtifacts(t *testing.T) {
	if *updateGolden {
		sums := map[string]string{}
		for _, goal := range goldenGoals {
			o, err := RunSpec(context.Background(), goldenSpec(goal), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range artifactDigests(t, o) {
				sums[k] = v
			}
		}
		names := make([]string, 0, len(sums))
		for k := range sums {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, "%s %s\n", k, sums[k])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, goal := range goldenGoals {
		o, err := RunSpec(context.Background(), goldenSpec(goal), Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if o.Completed == 0 {
			t.Fatalf("%s: no job completed: %v", goal, o.Errors)
		}
		checkGolden(t, goal, o)
	}
}
