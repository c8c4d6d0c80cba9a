package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Op groups the spans of one operation;
// Parent is the span that caused this one (-1 for an operation's root).
// Lane is the benchmark-visible timeline the span runs on: spans of one
// lane are attributed against each other when self time is computed.
type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced pass; they are written out
// when the run ends. A nil *tracer records nothing, so untraced passes
// pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	op    atomic.Int64 // current operation
	root  atomic.Int64 // root span of the current operation

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of operation i on lane 0; spans begun with
// begin until the next beginOp are its children.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return -1
	}
	t.op.Store(int64(i))
	id := t.add(span{Name: "bench.op", Op: i, Parent: -1, Start: t.now(), End: -1})
	t.root.Store(int64(id))
	return id
}

// begin opens a span on lane as a child of the current operation's root.
func (t *tracer) begin(lane int, name string) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Lane: lane, Op: int(t.op.Load()), Parent: int(t.root.Load()), Start: t.now(), End: -1})
}

// record adds an already-finished span (used where the start is known
// only after the fact, such as a remote worker's execution between two
// HTTP calls).
func (t *tracer) record(lane int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Lane: lane, Op: int(t.op.Load()), Parent: int(t.root.Load()), Start: start, End: end})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in milliseconds of the finished spans
// called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// perOp returns, per operation, the summed milliseconds of the spans
// called name.
func perOp(spans []span, name string) []float64 {
	byOp := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			byOp[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// layerOf is the layer a span name belongs to: the part before the
// first dot. "bench" is the benchmark's own glue.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribute splits the time of each of lanes timelines over [from, to)
// between layers: at every instant a lane's time goes to the innermost
// open span, taken as the one that started last, so the shares of one
// lane sum to to-from exactly. Time with no open span is "idle".
func attribute(spans []span, lanes int, from, to int64) map[string]float64 {
	type event struct {
		at   int64
		open bool
		idx  int
	}
	out := map[string]float64{}
	for lane := 0; lane < lanes; lane++ {
		var evs []event
		for i, s := range spans {
			if s.Lane != lane || s.End <= from || s.Start >= to {
				continue
			}
			evs = append(evs, event{max(s.Start, from), true, i}, event{min(s.End, to), false, i})
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].at != evs[b].at {
				return evs[a].at < evs[b].at
			}
			return !evs[a].open && evs[b].open // close before open at a tie
		})
		var open []int // indexes into spans, in start order
		prev := from
		for _, ev := range evs {
			if d := ev.at - prev; d > 0 {
				owner := "idle"
				if len(open) > 0 {
					owner = layerOf(spans[open[len(open)-1]].Name)
				}
				out[owner] += float64(d)
			}
			prev = ev.at
			if ev.open {
				pos := len(open)
				for pos > 0 && spans[open[pos-1]].Start > spans[ev.idx].Start {
					pos--
				}
				open = append(open, 0)
				copy(open[pos+1:], open[pos:])
				open[pos] = ev.idx
				continue
			}
			for k, idx := range open {
				if idx == ev.idx {
					open = append(open[:k], open[k+1:]...)
					break
				}
			}
		}
		if d := to - prev; d > 0 {
			out["idle"] += float64(d)
		}
	}
	return out
}

// coverage is the share of the lanes' time that falls to a program layer
// rather than to the benchmark's glue or to idle time.
func coverage(shares map[string]float64) float64 {
	var total, covered float64
	for layer, d := range shares {
		total += d
		if layer != "bench" && layer != "idle" {
			covered += d
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

// writeSpans writes spans as one JSON document to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// beyond it, and the percentile it sits at. With ten or fewer samples
// there is none, and the maximum is returned at percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	if k < 0 {
		return s[len(s)-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// medianMs calls f reps times and returns the median duration in
// milliseconds; it stops at the first error.
func medianMs(reps int, f func() error) (float64, error) {
	var ms []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
