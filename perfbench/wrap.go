package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/campaign/cache"
	"dyntreecast/internal/cluster"
	"dyntreecast/internal/core"
	"dyntreecast/internal/rng"
	"dyntreecast/internal/tree"
)

// tracerRef is the tracer of the pass in progress (nil when untraced).
// Wrappers built once at setup read it on every call, so one instance
// serves both the untraced and the traced pass.
type tracerRef struct{ p atomic.Pointer[tracer] }

func (r *tracerRef) get() *tracer { return r.p.Load() }

// timedCache wraps the cell cache a campaign or the daemon is given:
// every Get and Put becomes a span on lane 0, and the calls, hits and
// bytes are counted.
type timedCache struct {
	inner cache.Cache
	tr    *tracerRef

	gets, hits, puts, getBytes atomic.Int64

	mu      sync.Mutex
	keep    map[string][]byte // bytes served by Get while keeping is set
	keeping bool
}

func (c *timedCache) Get(key string) ([]byte, bool, error) {
	t := c.tr.get()
	id := t.begin(0, "cache.get")
	data, ok, err := c.inner.Get(key)
	t.end(id)
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
		c.getBytes.Add(int64(len(data)))
		c.mu.Lock()
		if c.keeping {
			c.keep[key] = data
		}
		c.mu.Unlock()
	}
	return data, ok, err
}

func (c *timedCache) Put(key string, data []byte) error {
	t := c.tr.get()
	id := t.begin(0, "cache.put")
	err := c.inner.Put(key, data)
	t.end(id)
	c.puts.Add(1)
	return err
}

// Delete forwards the campaign layer's corruption heal, which looks for
// cache.Deleter on the cache it is given.
func (c *timedCache) Delete(key string) error {
	if d, ok := c.inner.(cache.Deleter); ok {
		return d.Delete(key)
	}
	return nil
}

// keepGets starts (or stops) keeping the bytes Get serves, for decoding
// them again outside the timed path.
func (c *timedCache) keepGets(on bool) map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.keep
	c.keeping, c.keep = on, map[string][]byte{}
	return kept
}

// timedAdversary measures the time spent in Next of the adversary it
// wraps. It is built per cell and driven by one goroutine, so its
// counters need no synchronisation.
type timedAdversary struct {
	inner campaign.ReusableAdversary
	next  time.Duration
	calls int
}

func (a *timedAdversary) Next(v core.View) *tree.Tree {
	t0 := time.Now()
	t := a.inner.Next(v)
	a.next += time.Since(t0)
	a.calls++
	return t
}

func (a *timedAdversary) Reset(src *rng.Source) { a.inner.Reset(src) }

// timedTransport is the RoundTripper of the remote worker's
// *http.Client (cluster.WorkerOptions.Client). Each lease and push is a
// span on lane 1 that ends when the worker closes the response body, and
// the time between a granted lease and the push of its result is the
// remote shard execution.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracerRef

	emptyPolls, pushBytes, pushTrials atomic.Int64
	leasedAt                          atomic.Int64 // when the last granted lease's body closed
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.get()
	name := "cluster.lease"
	if req.URL.Path == "/cluster/results" {
		name = "cluster.push"
		t.pushBytes.Add(req.ContentLength)
		if at := t.leasedAt.Swap(0); tr != nil && at > 0 {
			tr.record(1, "campaign.remote_exec", at, tr.now())
		}
		if tr != nil && req.GetBody != nil {
			glue := tr.begin(1, "bench.count_trials")
			t.countTrials(req)
			tr.end(glue)
		}
	}
	id := tr.begin(1, name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return resp, err
	}
	if name == "cluster.lease" && resp.StatusCode == http.StatusNoContent {
		t.emptyPolls.Add(1)
	}
	granted := name == "cluster.lease" && resp.StatusCode == http.StatusOK
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		tr.end(id)
		if granted && tr != nil {
			t.leasedAt.Store(tr.now())
		}
	}}
	return resp, nil
}

// countTrials decodes a copy of a result push to count the trials it
// carries; traced passes only, as it costs the worker a decode.
func (t *timedTransport) countTrials(req *http.Request) {
	body, err := req.GetBody()
	if err != nil {
		return
	}
	defer body.Close()
	var push cluster.ResultPush
	if json.NewDecoder(body).Decode(&push) == nil {
		t.pushTrials.Add(int64(len(push.Trials)))
	}
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
