package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/server"
	"dyntreecast/internal/store"
)

// daemonSpec is the grid daemon-warm fills the warehouse with and then
// resubmits: many cheap cells with many trials, so a warm submission is
// all cache reads, JSON decoding, aggregation and warehouse ingest.
func daemonSpec(seed uint64, toy bool) campaign.Spec {
	ks := []any{2, 3, 4, 6, 8, 12}
	spec := campaign.Spec{
		Name: "daemon-warm",
		Scenarios: []campaign.Scenario{
			{Adversary: "random-tree"}, {Adversary: "random-path"},
			{Adversary: "k-leaves", Params: map[string]any{"k": ks}},
			{Adversary: "k-inner", Params: map[string]any{"k": ks}},
		},
		Ns: []int{16, 32, 64, 128}, Trials: 1000, Seed: deriveSeed(seed, "daemon-warm", 0),
	}
	if toy {
		spec.Scenarios = spec.Scenarios[:2]
		spec.Ns, spec.Trials = []int{8, 16}, 20
	}
	return spec
}

type daemon struct {
	e      *env
	dir    string
	spec   campaign.Spec
	body   []byte // the submitted spec
	cells  []byte // compact JSON of the fill run's cells
	st     *store.Store
	cache  *timedCache
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// per-pass accumulators, reset at operation 0
	trials, statusBytes  int64
	gets0, hits0, bytes0 int64
	ids                  []string
}

func setupDaemon(ctx context.Context, e *env, k int) (instance, error) {
	d := &daemon{e: e, dir: filepath.Join(e.work, fmt.Sprintf("daemon-%d", k)), spec: daemonSpec(e.seed, e.toy)}
	if err := d.start(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) start(ctx context.Context) error {
	var err error
	if d.body, err = json.Marshal(d.spec); err != nil {
		return err
	}
	if d.st, err = store.Open(d.dir); err != nil {
		return err
	}
	// Fill the warehouse with one cold run of the grid.
	out, err := campaign.RunSpec(ctx, d.spec, campaign.Config{Workers: d.e.procs, Cache: d.st.Cache()})
	if err != nil {
		return err
	}
	if err := checkCells(out); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	if _, err := d.st.IngestOutcome("fill", out); err != nil {
		return err
	}
	if d.cells, err = json.Marshal(out.Cells); err != nil {
		return err
	}
	d.cache = &timedCache{inner: d.st.Cache(), tr: &d.e.tr}
	d.srv = server.New(server.Options{Workers: d.e.procs, Cache: d.cache, Store: d.st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	return nil
}

// op is one campaignd submission of the filled grid: POST the spec, read
// its stream to the end, GET its status, and check the cells are
// byte-identical to the fill run's.
func (d *daemon) op(ctx context.Context, i int) error {
	if i == 0 {
		d.trials, d.statusBytes, d.ids = 0, 0, nil
		d.gets0, d.hits0, d.bytes0 = d.cache.gets.Load(), d.cache.hits.Load(), d.cache.getBytes.Load()
	}
	tr := d.e.tr.get()
	id := tr.begin(0, "server.submit")
	body, err := d.call(ctx, http.MethodPost, "/campaigns", d.body, http.StatusAccepted)
	tr.end(id)
	if err != nil {
		return err
	}
	var sub struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	id = tr.begin(0, "server.stream")
	body, err = d.call(ctx, http.MethodGet, "/campaigns/"+sub.ID+"/stream", nil, http.StatusOK)
	tr.end(id)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var done struct {
		Done   bool   `json:"done"`
		Status string `json:"status"`
		Failed int    `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil || !done.Done || done.Status != "done" || done.Failed != 0 {
		return fmt.Errorf("stream of %s ended with %q", sub.ID, lines[len(lines)-1])
	}
	id = tr.begin(0, "server.status")
	body, err = d.call(ctx, http.MethodGet, "/campaigns/"+sub.ID, nil, http.StatusOK)
	tr.end(id)
	if err != nil {
		return err
	}
	if err := checkStatus(body, sub.Jobs, d.cells); err != nil {
		return fmt.Errorf("campaign %s: %w", sub.ID, err)
	}
	d.trials += int64(sub.Jobs)
	d.statusBytes += int64(len(body))
	d.ids = append(d.ids, sub.ID)
	return nil
}

// ingestedCells waits for the daemon to ingest campaign id, which it
// does after reporting the campaign done, and returns the cells ingested.
func (d *daemon) ingestedCells(ctx context.Context, id string) (int, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, c := range d.st.Campaigns() {
			if c.ID == id {
				return c.Cells, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("campaign %s was not ingested", id)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// checkStatus checks a finished campaign's status document: done, every
// job completed, none failed, and cells byte-identical to want.
func checkStatus(body []byte, jobs int, want []byte) error {
	var st struct {
		Status    string          `json:"status"`
		Jobs      int             `json:"jobs"`
		Completed int             `json:"completed"`
		Failed    int             `json:"failed"`
		Cells     json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if st.Status != "done" || st.Failed != 0 || st.Completed != jobs || st.Jobs != jobs {
		return fmt.Errorf("status %s with %d/%d jobs completed, %d failed", st.Status, st.Completed, jobs, st.Failed)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, st.Cells); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("cells differ from the fill run's")
	}
	return nil
}

// call makes one request and reads the whole response, which must have
// status want.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) verify(context.Context) error { return nil }

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if err := <-d.served; err != http.ErrServerClosed {
			errs = append(errs, err)
		}
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown(ctx))
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	return errors.Join(append(errs, os.RemoveAll(d.dir))...)
}

func (d *daemon) layers(ctx context.Context, p *pass) (map[string]float64, error) {
	ops := float64(p.ops)
	gets := d.cache.gets.Load() - d.gets0
	hits := d.cache.hits.Load() - d.hits0
	got := d.cache.getBytes.Load() - d.bytes0
	ingested, err := d.ingestedCells(ctx, d.ids[0])
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"cache.get_ms":            mean(durations(p.spans, "cache.get")),
		"cache.gets":              float64(gets) / ops,
		"cache.hit_ratio":         float64(hits) / float64(gets),
		"cache.bytes_per_trial":   float64(got) / float64(d.trials),
		"store.cell_reads_per_op": float64(gets)/ops + float64(ingested),
		"server.submit_ms":        median(durations(p.spans, "server.submit")),
		"server.stream_ms":        median(durations(p.spans, "server.stream")),
		"server.status_ms":        median(durations(p.spans, "server.status")),
		"server.status_bytes":     float64(d.statusBytes) / ops,
		"server.trials_per_s":     float64(d.trials) / p.wall.Seconds(),
	}

	// The layers inside a warm RunSpec, called directly on the same
	// warehouse: the in-process run, then decoding the cell bytes it
	// reads, aggregating them, writing the artifact and ingesting.
	d.cache.keepGets(true)
	var out *campaign.Outcome
	m["campaign.warm_runspec_ms"], err = medianMs(3, func() error {
		o, err := campaign.RunSpec(ctx, d.spec, campaign.Config{Workers: d.e.procs, Cache: d.cache})
		if err != nil {
			return err
		}
		out = o
		return checkCells(o)
	})
	kept := d.cache.keepGets(false)
	if err != nil {
		return nil, err
	}

	jobs, err := d.spec.Compile()
	if err != nil {
		return nil, err
	}
	cellJobs, err := d.spec.CellJobs()
	if err != nil {
		return nil, err
	}
	type entry struct {
		Cell   string                   `json:"cell"`
		Trials [][]campaign.Measurement `json:"trials"`
	}
	entries := map[string]*entry{}
	m["cache.decode_ms"], err = medianMs(3, func() error {
		for _, cj := range cellJobs {
			var ent entry
			if err := json.Unmarshal(kept[cj.Key], &ent); err != nil {
				return fmt.Errorf("decoding cell %s: %w", cj.Cell, err)
			}
			entries[cj.Cell] = &ent
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]campaign.JobResult, len(jobs))
	next := map[string]int{}
	for i, j := range jobs {
		results[i] = campaign.JobResult{Index: i, Measurements: entries[j.Cell].Trials[next[j.Cell]]}
		next[j.Cell]++
	}
	m["campaign.aggregate_ms"], _ = medianMs(3, func() error {
		campaign.Aggregate(results)
		return nil
	})
	var buf bytes.Buffer
	if m["campaign.artifact_ms"], err = medianMs(3, func() error {
		buf.Reset()
		return out.WriteJSON(&buf)
	}); err != nil {
		return nil, err
	}
	m["campaign.artifact_bytes"] = float64(buf.Len())
	if m["store.ingest_ms"], err = medianMs(3, func() error {
		_, err := d.st.IngestSpec("perfbench-ingest", d.spec)
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}
