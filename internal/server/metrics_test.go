package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/metrics"
)

// scrape fetches /metrics from the test server and returns the raw
// exposition after checking status and content type.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sampleValue extracts the value of the series named exactly by prefix
// ("name" or `name{labels}`), or 0 when the series is absent. Absent is
// fine: vec children only exist after their first touch.
func sampleValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, prefix+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	return 0
}

// TestMetricsExpositionLintsLive is the format-validator test against a
// real serving process: after a campaign runs, the full /metrics scrape
// parses under the package's own exposition linter and carries the
// instrument families every layer of this PR registers.
func TestMetricsExpositionLintsLive(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()

	before := scrape(t, ts)
	id, jobs := submit(t, ts, specJSON)
	waitDone(t, ts, id)
	after := scrape(t, ts)

	if err := metrics.Lint(strings.NewReader(after)); err != nil {
		t.Fatalf("live exposition failed lint: %v", err)
	}
	for _, fam := range []string{
		"campaign_jobs_completed_total",
		"campaign_runs_total",
		"server_http_requests_total",
		"server_campaigns_submitted_total",
		"go_goroutines",
	} {
		if !strings.Contains(after, "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	// The registry is process-global, so assert deltas, not absolutes.
	const jc = "campaign_jobs_completed_total"
	if d := sampleValue(t, after, jc) - sampleValue(t, before, jc); d < float64(jobs) {
		t.Errorf("%s moved by %v, want >= %d", jc, d, jobs)
	}
	const sub = "server_campaigns_submitted_total"
	if d := sampleValue(t, after, sub) - sampleValue(t, before, sub); d != 1 {
		t.Errorf("%s moved by %v, want 1", sub, d)
	}
	route := `server_http_requests_total{route="POST /campaigns",code="202"}`
	if sampleValue(t, after, route) < 1 {
		t.Errorf("no sample for %s", route)
	}
}

// TestMetricsScrapeDuringCampaign hammers /metrics from several
// goroutines while a campaign executes — the scrape path must be safe
// against every concurrent instrument write (this test carries its
// weight under -race, where it proves the lock-free instruments racefree
// against a live workload, not a synthetic one).
func TestMetricsScrapeDuringCampaign(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 4}))
	defer ts.Close()

	id, _ := submit(t, ts, specJSON)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body := scrape(t, ts)
				if err := metrics.Lint(strings.NewReader(body)); err != nil {
					t.Errorf("mid-campaign scrape failed lint: %v", err)
					return
				}
			}
		}()
	}
	waitDone(t, ts, id)
	close(done)
	wg.Wait()
}

// TestCacheCountersMatchWarmRun is the cache-instrumentation e2e: a cold
// submission misses once per cell and a warm resubmission of the same
// spec hits once per cell — the counter deltas must equal the grid's
// cell count exactly, proving the decorator counts real traffic and
// nothing else.
func TestCacheCountersMatchWarmRun(t *testing.T) {
	// A test-unique backend label isolates these counters from every
	// other test sharing the process-global registry.
	backend := "memtest-warmrun"
	ts := httptest.NewServer(New(Options{Workers: 2, Cache: cache.Instrument(backend, cache.NewMemory())}))
	defer ts.Close()

	const cells = 4 // specJSON: 2 adversaries x 2 ns
	series := func(result string) string {
		return fmt.Sprintf(`campaign_cache_requests_total{backend=%q,result=%q}`, backend, result)
	}
	puts := fmt.Sprintf(`campaign_cache_puts_total{backend=%q}`, backend)
	// The registry is process-global, so under -count > 1 the series
	// carry earlier iterations' traffic: compare deltas from a baseline.
	base := scrape(t, ts)
	delta := func(exposition, series string) float64 {
		return sampleValue(t, exposition, series) - sampleValue(t, base, series)
	}

	id, _ := submit(t, ts, specJSON)
	waitDone(t, ts, id)
	cold := scrape(t, ts)
	if got := delta(cold, series("miss")); got != cells {
		t.Errorf("cold run misses = %v, want %d", got, cells)
	}
	if got := delta(cold, series("hit")); got != 0 {
		t.Errorf("cold run hits = %v, want 0", got)
	}
	if got := delta(cold, puts); got != cells {
		t.Errorf("cold run puts = %v, want %d", got, cells)
	}

	id2, _ := submit(t, ts, specJSON)
	waitDone(t, ts, id2)
	warm := scrape(t, ts)
	if got := delta(warm, series("hit")); got != cells {
		t.Errorf("warm run hits = %v, want %d", got, cells)
	}
	if got := delta(warm, series("miss")); got != cells {
		t.Errorf("warm run misses = %v, want %d (cold only)", got, cells)
	}
}

// TestDashboardServes: the embedded dashboard answers on / and /ui/ with
// the single-file UI, and a stray path under neither stays 404.
func TestDashboardServes(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	for _, path := range []string{"/", "/ui/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(data), "dyntreecast fleet") {
			t.Errorf("GET %s: dashboard HTML missing", path)
		}
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}
