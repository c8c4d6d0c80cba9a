package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/cluster"
)

// clusterSpec is the campaign of cluster-loopback operation i: 4,800
// cheap small-n random trials in 600 shards of 8, so the time goes to
// leasing and pushing shards rather than to the engine.
func clusterSpec(seed uint64, i int, toy bool) campaign.Spec {
	spec := campaign.Spec{
		Name: "cluster-loopback",
		Scenarios: []campaign.Scenario{
			{Adversary: "random-tree"}, {Adversary: "random-path"},
			{Adversary: "k-leaves", Params: map[string]any{"k": 2}},
		},
		Ns: []int{16, 32}, Trials: 800, Seed: deriveSeed(seed, "cluster-loopback", i),
	}
	if toy {
		spec.Scenarios, spec.Ns, spec.Trials = spec.Scenarios[:1], []int{8}, 24
	}
	return spec
}

const (
	shardTrials = 8
	// workerPoll is the remote worker's sleep after an empty lease: short,
	// so a campaign's first shards are picked up promptly.
	workerPoll = 2 * time.Millisecond
)

type clusterLoop struct {
	e         *env
	coord     *cluster.Coordinator
	hs        *http.Server
	served    chan error
	transport *timedTransport
	stop      context.CancelFunc
	worker    chan error

	// per-pass state, reset at operation 0
	digests                 [][32]byte // artifact digest of each operation
	trials                  int64
	shards                  int
	stats0                  cluster.Stats
	emptyPolls0             int64
	pushBytes0, pushTrials0 int64
}

func setupCluster(ctx context.Context, e *env, _ int) (instance, error) {
	c := &clusterLoop{e: e, coord: cluster.New(cluster.Options{ShardTrials: shardTrials})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.hs = &http.Server{Handler: c.coord.Handler()}
	c.served = make(chan error, 1)
	go func() { c.served <- c.hs.Serve(ln) }()

	c.transport = &timedTransport{base: &http.Transport{}, tr: &e.tr}
	wctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	c.worker = make(chan error, 1)
	go func() {
		c.worker <- cluster.RunWorker(wctx, "http://"+ln.Addr().String(), cluster.WorkerOptions{
			ID:     "perfbench-remote",
			Poll:   workerPoll,
			Client: &http.Client{Transport: c.transport, Timeout: 30 * time.Second},
		})
	}()
	return c, nil
}

// op runs one campaign with the coordinator as its remote scheduler: one
// local worker and the remote worker share its 8-trial shards.
func (c *clusterLoop) op(ctx context.Context, i int) error {
	if i == 0 {
		c.digests, c.trials, c.shards = nil, 0, 0
		c.stats0 = c.coord.Stats()
		c.emptyPolls0 = c.transport.emptyPolls.Load()
		c.pushBytes0, c.pushTrials0 = c.transport.pushBytes.Load(), c.transport.pushTrials.Load()
	}
	spec := clusterSpec(c.e.seed, i, c.e.toy)
	tr := c.e.tr.get()
	id := tr.begin(0, "campaign.runspec")
	out, err := campaign.RunSpec(ctx, spec, campaign.Config{Workers: 1, Remote: c.coord})
	tr.end(id)
	if err != nil {
		return err
	}
	if err := checkCells(out); err != nil {
		return err
	}
	d, err := artifactDigest(out)
	if err != nil {
		return err
	}
	c.digests = append(c.digests, d)
	c.trials += int64(out.Jobs)
	for _, cell := range out.Cells {
		c.shards += (cell.Count + shardTrials - 1) / shardTrials
	}
	return nil
}

func artifactDigest(out *campaign.Outcome) ([32]byte, error) {
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// verified bounds how many campaigns of a pass verify runs again, so a
// run's checks stay short however many campaigns the loop completed.
const verified = 64

// verify checks that campaigns of the pass, at most verified of them
// spread evenly over it, wrote the artifact a purely local RunSpec of
// the same spec writes, byte for byte.
func (c *clusterLoop) verify(ctx context.Context) error {
	step := (len(c.digests) + verified - 1) / verified
	for i := 0; i < len(c.digests); i += step {
		out, err := campaign.RunSpec(ctx, clusterSpec(c.e.seed, i, c.e.toy), campaign.Config{Workers: c.e.procs})
		if err != nil {
			return err
		}
		want, err := artifactDigest(out)
		if err != nil {
			return err
		}
		if c.digests[i] != want {
			return fmt.Errorf("operation %d: artifact differs from a local run of the same spec", i)
		}
	}
	return nil
}

func (c *clusterLoop) close() error {
	c.stop()
	werr := <-c.worker
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := c.hs.Shutdown(ctx)
	if err := <-c.served; err != http.ErrServerClosed {
		herr = errors.Join(herr, err)
	}
	c.transport.base.(*http.Transport).CloseIdleConnections()
	return errors.Join(werr, herr)
}

func (c *clusterLoop) layers(_ context.Context, p *pass) (map[string]float64, error) {
	st := c.coord.Stats()
	ops := float64(p.ops)
	pushBytes := float64(c.transport.pushBytes.Load() - c.pushBytes0)
	perTrial := 0.0 // the remote worker pushed nothing
	if pushTrials := c.transport.pushTrials.Load() - c.pushTrials0; pushTrials > 0 {
		perTrial = pushBytes / float64(pushTrials)
	}
	return map[string]float64{
		"cluster.lease_rtt_ms":         median(durations(p.spans, "cluster.lease")),
		"cluster.push_rtt_ms":          median(durations(p.spans, "cluster.push")),
		"cluster.push_bytes_per_trial": perTrial,
		"cluster.leases":               float64(st.LeasesGranted-c.stats0.LeasesGranted) / ops,
		"cluster.empty_polls":          float64(c.transport.emptyPolls.Load()-c.emptyPolls0) / ops,
		"cluster.requeued":             float64(st.Requeued - c.stats0.Requeued),
		"cluster.remote_share":         float64(st.RemoteCells-c.stats0.RemoteCells) / float64(c.shards),
		"cluster.trials_per_s":         float64(c.trials) / p.wall.Seconds(),
	}, nil
}
