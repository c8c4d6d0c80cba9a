package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"dyntreecast/internal/campaign"
)

// TestMetricsMatchBenchmarkJSON pins the metric and workload lists the
// program reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads: program has %s, BENCHMARK.json %s", got, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, perLayer)
}

// inputs renders the first ops operations' inputs of every workload.
func inputs(t *testing.T, seed uint64, ops int) []byte {
	t.Helper()
	var specs []campaign.Spec
	for i := 0; i < ops; i++ {
		specs = append(specs, gridSpecs(seed, i, false)...)
		specs = append(specs, clusterSpec(seed, i, false))
	}
	specs = append(specs, daemonSpec(seed, false))
	data, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInputsDeterministic(t *testing.T) {
	a, b := inputs(t, 7, 20), inputs(t, 7, 20)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, inputs(t, 8, 20)) {
		t.Fatal("different seeds generated the same inputs")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		s := clusterSpec(7, i, false).Seed
		if seen[s] {
			t.Fatalf("operation %d repeats a campaign seed", i)
		}
		seen[s] = true
	}
}

func TestSmoke(t *testing.T) {
	if err := runSmoke(context.Background(), 1, t.TempDir(), io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The output checks reject a wrong result on every workload.
func TestChecksRejectCorruptedOutput(t *testing.T) {
	t.Run("exact-solve", func(t *testing.T) {
		if err := checkExact(5, 5); err != nil {
			t.Fatal(err)
		}
		if checkExact(5, 6) == nil {
			t.Fatal("t*(T5) = 6 accepted")
		}
	})
	t.Run("grid-cold", func(t *testing.T) {
		good := &campaign.Outcome{Jobs: 2, Completed: 2, Cells: []campaign.CellStats{
			{Cell: "static-path/n=16", Count: 1, Min: 15, Max: 15},
			{Cell: "k-leaves/n=16/k=4", Count: 1, Min: 20, Max: 20},
		}}
		if err := checkCells(good); err != nil {
			t.Fatal(err)
		}
		for name, corrupt := range map[string]func(o *campaign.Outcome){
			"static path off n-1":   func(o *campaign.Outcome) { o.Cells[0].Max = 16 },
			"above the upper bound": func(o *campaign.Outcome) { o.Cells[1].Max = 39 },
			"failed job":            func(o *campaign.Outcome) { o.Failed, o.Completed, o.Errors = 1, 1, []string{"boom"} },
		} {
			o := *good
			o.Cells = append([]campaign.CellStats(nil), good.Cells...)
			corrupt(&o)
			if checkCells(&o) == nil {
				t.Errorf("%s accepted", name)
			}
		}
	})
	t.Run("daemon-warm", func(t *testing.T) {
		want := []byte(`[{"cell":"a/n=2","count":1}]`)
		status := []byte(`{"status":"done","jobs":1,"completed":1,"failed":0,"cells":[{"cell":"a/n=2", "count":1}]}`)
		if err := checkStatus(status, 1, want); err != nil {
			t.Fatal(err)
		}
		if checkStatus(bytes.Replace(status, []byte(`"count":1}`), []byte(`"count":2}`), 1), 1, want) == nil {
			t.Fatal("differing cells accepted")
		}
	})
	t.Run("cluster-loopback", func(t *testing.T) {
		e := &env{seed: 1, toy: true, work: t.TempDir(), procs: runtime.GOMAXPROCS(0)}
		w, _ := workloadByName("cluster-loopback")
		inst, err := build(context.Background(), e, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		c := inst.(*clusterLoop)
		if err := c.verify(context.Background()); err != nil {
			t.Fatal(err)
		}
		d := c.digests[0]
		d[0] ^= 1
		c.digests[0] = d
		if c.verify(context.Background()) == nil {
			t.Fatal("a differing artifact accepted")
		}
	})
}

func TestAttribute(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100},
		{Name: "campaign.runspec", Start: 10, End: 90},
		{Name: "cache.get", Start: 20, End: 30},
		{Name: "cluster.lease", Lane: 1, Start: 50, End: 60},
	}
	got := attribute(spans, 2, 0, 100)
	want := map[string]float64{"bench": 20, "campaign": 70, "cache": 10, "cluster": 10, "idle": 90}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v (all %v)", k, got[k], v, got)
		}
	}
	if c := coverage(got); c != 90.0/200 {
		t.Errorf("coverage %v, want %v", c, 90.0/200)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 10 || pct != 50 {
		t.Fatalf("tail of 1..20 = %v at p%v, want 10 at p50", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 20 {
		t.Fatalf("tail of five samples = %v, want their maximum", v)
	}
}
