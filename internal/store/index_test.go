package store

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
)

// indexSeed seeds the warehouse index property test; a failure logs its
// seed, and -indexseed=S replays that sequence.
var indexSeed = flag.Uint64("indexseed", 1, "seed of the warehouse index property test")

// TestIncrementalIndexMatchesReindex: after any sequence of ingests,
// re-ingests, JSONL backfills, pins and GC passes, the index that ingest
// maintains block by block equals a fresh rebuild from the manifests.
func TestIncrementalIndexMatchesReindex(t *testing.T) {
	t.Logf("index seed %d (replay with -indexseed=%d)", *indexSeed, *indexSeed)
	rnd := rand.New(rand.NewPCG(*indexSeed, 0))
	s := openStore(t)
	specs := []campaign.Spec{
		testSpec(),
		{Adversaries: []string{"random-path"}, Ns: []int{4, 8, 8}, Trials: 2, Seed: 9}, // a cell listed twice
		{Scenarios: []campaign.Scenario{{Adversary: "k-leaves", Params: map[string]any{"k": []any{2, 3}}}}, Ns: []int{8}, Trials: 2, Seed: 1},
	}
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for step := 0; step < 80; step++ {
		id := ids[rnd.IntN(len(ids))]
		switch op := rnd.IntN(6); op {
		case 0, 1, 2: // ingest, or re-ingest under a used id
			spec := specs[rnd.IntN(len(specs))]
			out, err := campaign.RunSpec(context.Background(), spec, campaign.Config{Cache: s.Cache()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.IngestOutcome(id, out); err != nil {
				t.Fatalf("step %d: ingest %s: %v", step, id, err)
			}
		case 3: // stats-only backfill, possibly replacing a campaign
			var lines strings.Builder
			for k := rnd.IntN(4); k >= 0; k-- {
				fmt.Fprintf(&lines, `{"cell":"random-tree/n=%d","count":%d,"mean":%d}`+"\n", 4<<rnd.IntN(3), 1+rnd.IntN(5), rnd.IntN(9))
			}
			if _, err := s.BackfillJSONL(id, strings.NewReader(lines.String())); err != nil {
				t.Fatalf("step %d: backfill %s: %v", step, id, err)
			}
		case 4:
			if err := s.Pin(id, rnd.IntN(2) == 0); err != nil {
				t.Fatal(err)
			}
		case 5:
			if _, err := s.GC(0); err != nil {
				t.Fatal(err)
			}
		}
		s.mu.Lock()
		kept := s.rows
		s.reindex()
		rebuilt := s.rows
		s.rows = kept
		s.mu.Unlock()
		if !slices.Equal(kept, rebuilt) {
			t.Fatalf("step %d: index of %d rows differs from a rebuild of %d rows", step, len(kept), len(rebuilt))
		}
	}
}

// TestReingestSharesCellRecords: a cell ingested again — by a second
// campaign, or by the manifests a reopen loads — points at the one
// record its content address already has, so a warm resubmission adds
// rows, not copies of keys, names and params.
func TestReingestSharesCellRecords(t *testing.T) {
	s := openStore(t)
	runInto(t, s, "run1", testSpec())
	runInto(t, s, "run2", testSpec())
	shared := func(s *Store) {
		t.Helper()
		a, b := s.manifests["run1"].Cells, s.manifests["run2"].Cells
		if len(a) != 4 || len(a) != len(b) {
			t.Fatalf("cells: %d and %d, want 4 each", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("cell %s: two records for one content address", a[i].Cell)
			}
		}
	}
	shared(s)
	reopened, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	shared(reopened)
}
