package store

import (
	"context"
	"path/filepath"
	"sync"
)

// ingestGate counts the announced, unfinished ingests into one warehouse
// directory: idle is made when the first is announced and closed when the
// last finishes. A writer that publishes "done" before its ingest lands
// (campaignd reports a campaign finished, then ingests it) announces the
// ingest first, so a reader in the same process sees every ingest
// announced before it. Gates are process-wide per directory, so every
// handle on a warehouse waits on the same ingests.
type ingestGate struct {
	mu      sync.Mutex
	pending int
	idle    chan struct{}
}

var gates sync.Map // absolute directory → *ingestGate

func gateFor(dir string) *ingestGate {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	g, _ := gates.LoadOrStore(dir, &ingestGate{})
	return g.(*ingestGate)
}

func (g *ingestGate) wait(ctx context.Context) error {
	g.mu.Lock()
	idle := g.idle
	g.mu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BeginIngest announces an ingest into the warehouse and returns the
// function that retires it, to call once when the ingest has finished.
// Announce before publishing anything that promises the ingest:
// AwaitIngests, and Open on the same directory, wait for it.
func (s *Store) BeginIngest() (end func()) {
	g := s.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending++; g.pending == 1 {
		g.idle = make(chan struct{})
	}
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.pending--; g.pending == 0 {
			close(g.idle)
		}
	}
}

// AwaitIngests blocks until every ingest announced on this warehouse, by
// any handle in this process, has finished, or until ctx is done.
func (s *Store) AwaitIngests(ctx context.Context) error { return s.gate.wait(ctx) }
