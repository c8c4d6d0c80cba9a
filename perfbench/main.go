// Command perfbench is dyntreecast's benchmark. It runs four workloads
// through the public entry points the binaries use — campaign.RunSpec
// (cmd/campaign), server.New (cmd/campaignd), cluster.New with
// cluster.RunWorker (campaign -join, campaignd -worker) and
// gamesolver.New (cmd/exact-solver) — checks every output, and prints
// the end-to-end metrics (or, traced, the per-layer metrics) as the last
// line of standard output. README.md describes the workloads, the
// metrics and the baseline.
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
//
// It runs from the root of a checkout of the repository and writes only
// under .bench_build/perfbench there.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 20, "length of the measured phase")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "run every workload once at toy size and check its outputs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	if *smoke {
		return runSmoke(ctx, *seed, work, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	e := &env{seed: *seed, work: work, procs: runtime.GOMAXPROCS(0)}
	dur := time.Duration(*seconds) * time.Second

	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, e, w, dur)
	} else {
		res, err = runMeasured(ctx, e, w, dur)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = w.name, *seed, *seconds, *trace
	res.Host = fingerprint()
	return report(stdout, res)
}

// result is one run's outcome; report prints it and keeps a copy under
// outDir/results.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Host     host              `json:"host"`
	Ops      int               `json:"ops"`
	Metrics  map[string]metric `json:"metrics"`
	// Shares splits the traced pass's lane time between layers (traced
	// runs only); "bench" is the benchmark's glue and "idle" no open span.
	Shares map[string]float64 `json:"shares,omitempty"`
	spans  []span
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runMeasured is the untraced run: the end-to-end metrics of one
// workload.
func runMeasured(ctx context.Context, e *env, w workload, dur time.Duration) (_ *result, err error) {
	inst, setup, err := setUp(ctx, e, w)
	if err != nil {
		return nil, err
	}
	defer closeInto(inst, &err)
	p, err := runPass(ctx, e, inst, nil, 0, dur)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx); err != nil {
		return nil, err
	}
	ms := endToEnd(setup, p)
	ms["rng.uint64_ns"] = metric{Value: calibrate(), Unit: "ns"} // printed with the host, not in the result line
	return &result{Ops: p.ops, Metrics: ms}, nil
}

// setUp builds w's instance w.setups times, keeping the last, and
// returns the setup times.
func setUp(ctx context.Context, e *env, w workload) (instance, []float64, error) {
	var times []float64
	for k := 0; ; k++ {
		t0 := time.Now()
		inst, err := build(ctx, e, w, k)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if k+1 == w.setups {
			return inst, times, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
		// Collect the closed set-up's garbage before the next one, so the
		// memory the measured phase sees is its own.
		runtime.GC()
	}
}

func endToEnd(setup []float64, p *pass) map[string]metric {
	tailV, _ := tail(p.lat)
	return map[string]metric{
		"setup_s":       {Value: median(setup), Unit: "s", Samples: len(setup)},
		"op_p50_ms":     {Value: median(p.lat), Unit: "ms", Samples: len(p.lat)},
		"op_tail_ms":    {Value: tailV, Unit: "ms", Samples: len(p.lat)},
		"cpu_ms_per_op": {Value: p.cpu.Seconds() * 1e3 / float64(p.ops), Unit: "ms", Samples: p.ops},
		"mem_p50_mb":    {Value: median(p.mem), Unit: "MB", Samples: len(p.mem)},
		"peak_rss_mb":   {Value: peakRSSMB(), Unit: "MB"}, // printed with the host: too GC-timing dependent to gate
	}
}

// runTraced is the traced run of w: the same operations untraced and
// traced give trace.overhead, the traced pass gives w's layer metrics
// and trace.coverage, and a short traced pass of every other workload
// gives the layer metrics measured there, so that every per-layer
// metric is reported by every traced run.
func runTraced(ctx context.Context, e *env, w workload, dur time.Duration) (_ *result, err error) {
	inst, err := build(ctx, e, w, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer closeInto(inst, &err)
	plain, err := runPass(ctx, e, inst, nil, 0, dur/2)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPass(ctx, e, inst, tr, plain.ops, 0)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx); err != nil {
		return nil, err
	}
	layers, err := inst.layers(ctx, traced)
	if err != nil {
		return nil, err
	}
	shares := attribute(traced.spans, w.lanes, traced.from, traced.to)
	layers["trace.overhead"] = traced.wall.Seconds() / plain.wall.Seconds()
	layers["trace.coverage"] = coverage(shares)
	layers["rng.uint64_ns"] = calibrate()

	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		ls, err := shortTracedPass(ctx, e, other)
		if err != nil {
			return nil, fmt.Errorf("traced pass of %s: %w", other.name, err)
		}
		for k, v := range ls {
			layers[k] = v
		}
	}
	ms := map[string]metric{}
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	return &result{Ops: traced.ops, Metrics: ms, Shares: normalize(shares), spans: traced.spans}, nil
}

// shortTracedPass sets w up once and traces a few seconds of it for its
// layer metrics.
func shortTracedPass(ctx context.Context, e *env, w workload) (_ map[string]float64, err error) {
	inst, err := build(ctx, e, w, 0)
	if err != nil {
		return nil, err
	}
	defer closeInto(inst, &err)
	p, err := runPass(ctx, e, inst, newTracer(), 0, shortPass)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx); err != nil {
		return nil, err
	}
	return inst.layers(ctx, p)
}

// closeInto closes inst and reports its error through *err unless an
// earlier error is already there.
func closeInto(inst instance, err *error) {
	if cerr := inst.close(); *err == nil && cerr != nil {
		*err = fmt.Errorf("closing: %w", cerr)
	}
}

// shortPass is how long a traced run traces each workload other than its
// own.
const shortPass = 2 * time.Second

// pass is one closed loop of operations.
type pass struct {
	ops      int
	lat      []float64 // per-operation latency, ms
	mem      []float64 // memory retained after each operation, MB
	wall     time.Duration
	cpu      time.Duration
	from, to int64 // tracer clock at the start and end of the loop
	spans    []span
}

// runPass runs operations 0, 1, … of inst back to back, until n have run
// (n > 0) or dur has passed (n == 0). tr, when not nil, traces them.
func runPass(ctx context.Context, e *env, inst instance, tr *tracer, n int, dur time.Duration) (*pass, error) {
	e.tr.p.Store(tr)
	defer e.tr.p.Store(nil)
	p := &pass{}
	if tr != nil {
		p.from = tr.now()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; (n > 0 && i < n) || (n == 0 && (i == 0 || time.Since(t0) < dur)); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		root := tr.beginOp(i)
		s := time.Now()
		err := inst.op(ctx, i)
		p.lat = append(p.lat, float64(time.Since(s))/1e6)
		tr.end(root)
		p.mem = append(p.mem, retainedMB())
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", i, err)
		}
		p.ops++
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	if tr != nil {
		p.to = tr.now()
		p.spans = tr.snapshot()
	}
	return p, nil
}

func normalize(shares map[string]float64) map[string]float64 {
	var total float64
	for _, d := range shares {
		total += d
	}
	out := make(map[string]float64, len(shares))
	for k, d := range shares {
		out[k] = d / total
	}
	return out
}

// report prints the human-readable table, keeps the full result under
// outDir/results, and prints the result line last.
func report(stdout io.Writer, res *result) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, res.Trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if res.spans != nil {
		if err := writeSpans(base+".spans.json", res.spans); err != nil {
			return err
		}
	}

	hostLine, err := json.Marshal(res.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d ops=%d\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.Ops)
	fmt.Fprintf(stdout, "# host %s\n", hostLine)
	fmt.Fprintf(stdout, "# calibration rng.uint64_ns=%.4f\n", res.Metrics["rng.uint64_ns"].Value)
	if m, ok := res.Metrics["peak_rss_mb"]; ok {
		fmt.Fprintf(stdout, "# peak_rss_mb=%.1f\n", m.Value)
	}
	defs := endToEndDefs
	if res.Trace == 1 {
		defs = perLayer
		var layers []string
		for l := range res.Shares {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(stdout, "# share %-10s %6.2f%%\n", l, 100*res.Shares[l])
		}
		if c := res.Metrics["trace.coverage"].Value; c < coverageTarget {
			fmt.Fprintf(stdout, "# coverage %.1f%% is below %.0f%%: unattributed are idle %.1f%% (no span open: %s) and bench %.1f%% (the benchmark's own glue)\n",
				100*c, 100*coverageTarget, 100*res.Shares["idle"], idleMeaning[res.Workload], 100*res.Shares["bench"])
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Attempted: res.Ops, Metrics: map[string]metric{}}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(stdout, "%-34s %14.4f %-6s %s\n", d.name, m.Value, d.unit, samples(m.Samples))
		line.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// coverageTarget is the share of the end-to-end time the layer spans
// should account for.
const coverageTarget = 0.85

// idleMeaning names what a workload's lanes do while no span is open.
var idleMeaning = map[string]string{
	"grid-cold":        "between operations",
	"daemon-warm":      "between operations",
	"cluster-loopback": "mostly the remote worker sleeping between empty lease polls",
	"exact-solve":      "between operations",
}

func samples(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("n=%d", n)
}
