package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden.sha256 from the current code; only
// ever right for a deliberate change of the tables' bytes.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const goldenPath = "testdata/golden.sha256"

// goldenTables are the experiment tables whose bytes the golden digests
// pin: the restricted and gossip tables drive the k-leaves, k-inner and
// random-tree adversaries through hand-built job fans, and Figure 1 runs
// the whole portfolio plus the search strata.
var goldenTables = []struct {
	name  string
	build func() (*Table, error)
}{
	{"restricted", func() (*Table, error) { return Restricted([]int{6, 12, 20}, []int{2, 3, 5}, 5, 41) }},
	{"gossip", func() (*Table, error) { return GossipVsBroadcast([]int{5, 9, 16}, 5, 43) }},
	{"figure1", func() (*Table, error) { return Figure1([]int{4, 7}, 47) }},
}

// tableDigest is the sha256 of the table's text rendering followed by its
// CSV rendering.
func tableDigest(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// TestGoldenTables pins every goldenTables entry to its committed digest.
// Run with -update to rewrite them.
func TestGoldenTables(t *testing.T) {
	got := map[string]string{}
	var b strings.Builder
	for _, g := range goldenTables {
		tab, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got[g.name] = tableDigest(t, tab)
		fmt.Fprintf(&b, "%s %s\n", g.name, got[g.name])
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	for _, g := range goldenTables {
		if got[g.name] != want[g.name] {
			t.Errorf("%s: digest %s, golden %s", g.name, got[g.name], want[g.name])
		}
	}
}
