package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"dyntreecast/internal/campaign"
)

// TestIngestGateOrdersReaders: an announced ingest holds back
// AwaitIngests (until it finishes or the caller's context ends) and a
// second Open of the same directory, which then sees the ingested
// campaign.
func TestIngestGateOrdersReaders(t *testing.T) {
	s := openStore(t)
	if err := s.AwaitIngests(context.Background()); err != nil {
		t.Fatalf("idle gate: %v", err)
	}
	out, err := campaign.RunSpec(context.Background(), testSpec(), campaign.Config{Cache: s.Cache()})
	if err != nil {
		t.Fatal(err)
	}
	end := s.BeginIngest()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.AwaitIngests(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitIngests with an ingest pending: %v, want DeadlineExceeded", err)
	}

	reopened := make(chan *Store)
	go func() {
		s2, err := Open(s.Root())
		if err != nil {
			t.Error(err)
		}
		reopened <- s2
	}()
	select {
	case <-reopened:
		t.Fatal("Open returned while an ingest was pending")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.IngestOutcome("gated", out); err != nil {
		t.Fatal(err)
	}
	end()
	if err := s.AwaitIngests(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := <-reopened
	if s2 == nil {
		t.FailNow()
	}
	if cs := s2.Campaigns(); len(cs) != 1 || cs[0].ID != "gated" {
		t.Errorf("reopened store lists %+v, want the gated campaign", cs)
	}
}
