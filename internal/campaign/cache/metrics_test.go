package cache

import (
	"bytes"
	"errors"
	"testing"
)

// TestInstrumentCounts: the decorator classifies every Get as hit or
// miss, every Put as a store, and passes bytes through unmodified.
func TestInstrumentCounts(t *testing.T) {
	c := Instrument("unit-mem", NewMemory())
	// The registry is process-global: compare deltas, so -count > 1
	// reruns see only their own traffic.
	hits0, misses0 := mRequests.With("unit-mem", "hit").Value(), mRequests.With("unit-mem", "miss").Value()
	puts0, errs0 := mPuts.With("unit-mem").Value(), mErrors.With("unit-mem").Value()

	if err := c.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := c.Get("k1")
	if err != nil || !ok || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("Get(k1) = %q, %v, %v", data, ok, err)
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("Get(absent) reported a hit")
	}

	if got := mRequests.With("unit-mem", "hit").Value() - hits0; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := mRequests.With("unit-mem", "miss").Value() - misses0; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := mPuts.With("unit-mem").Value() - puts0; got != 1 {
		t.Errorf("puts = %d, want 1", got)
	}
	if got := mErrors.With("unit-mem").Value() - errs0; got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// failing is a Cache whose operations always fail.
type failing struct{ err error }

func (f failing) Get(string) ([]byte, bool, error) { return nil, false, f.err }
func (f failing) Put(string, []byte) error         { return f.err }

// TestInstrumentErrors: backend failures count as errors — not hits,
// misses, or puts — and the error passes through to the caller intact.
func TestInstrumentErrors(t *testing.T) {
	wantErr := errors.New("disk gone")
	c := Instrument("unit-bad", failing{wantErr})
	errs0 := mErrors.With("unit-bad").Value()

	if _, _, err := c.Get("k"); !errors.Is(err, wantErr) {
		t.Fatalf("Get error = %v, want %v", err, wantErr)
	}
	if err := c.Put("k", nil); !errors.Is(err, wantErr) {
		t.Fatalf("Put error = %v, want %v", err, wantErr)
	}
	if got := mErrors.With("unit-bad").Value() - errs0; got != 2 {
		t.Errorf("errors = %d, want 2", got)
	}
	for _, series := range []struct {
		name string
		got  uint64
	}{
		{"hit", mRequests.With("unit-bad", "hit").Value()},
		{"miss", mRequests.With("unit-bad", "miss").Value()},
		{"put", mPuts.With("unit-bad").Value()},
	} {
		if series.got != 0 {
			t.Errorf("%s = %d, want 0", series.name, series.got)
		}
	}
}
