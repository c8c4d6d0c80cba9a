package main

import (
	"context"
	"fmt"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/gamesolver"
)

// exactValues are t*(T2..T5), the exact broadcast times every solve must
// return. n = 6 is left out: a cold solve takes tens of seconds.
var exactValues = []int{1, 2, 4, 5}

type exact struct {
	e    *env
	maxN int

	// per-pass accumulators, reset at operation 0
	applies, states []float64 // per operation
}

func setupExact(_ context.Context, e *env, _ int) (instance, error) {
	x := &exact{e: e, maxN: 1 + len(exactValues)}
	if e.toy {
		x.maxN = 4
	}
	return x, nil
}

// op is one cmd/exact-solver run: a cold solve of each n = 2..maxN on
// GOMAXPROCS workers.
func (x *exact) op(_ context.Context, i int) error {
	if i == 0 {
		x.applies, x.states = nil, nil
	}
	applies, states, err := x.solve(x.e.tr.get(), x.e.procs)
	if err != nil {
		return err
	}
	x.applies = append(x.applies, float64(applies))
	x.states = append(x.states, float64(states))
	return nil
}

// solve solves n = 2..maxN cold on workers goroutines and checks every
// value; it returns the tree applications and states the solves took.
func (x *exact) solve(tr *tracer, workers int) (applies, states uint64, err error) {
	for n := 2; n <= x.maxN; n++ {
		id := tr.begin(0, "gamesolver.new")
		s, err := gamesolver.New(n, gamesolver.Parallel(workers))
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		id = tr.begin(0, "gamesolver.value")
		v := s.Value()
		tr.end(id)
		if err := checkExact(n, v); err != nil {
			return 0, 0, err
		}
		st := s.Stats()
		applies += st.Applies
		states += st.States
	}
	return applies, states, nil
}

// checkExact checks a solved t*(Tn) against the known values and the
// paper's sandwich.
func checkExact(n, v int) error {
	if want := exactValues[n-2]; v != want {
		return fmt.Errorf("t*(T%d) = %d, want %d", n, v, want)
	}
	if v < bounds.Lower(n) || v > bounds.UpperLinear(n) {
		return fmt.Errorf("t*(T%d) = %d outside [%d, %d]", n, v, bounds.Lower(n), bounds.UpperLinear(n))
	}
	return nil
}

func (x *exact) verify(context.Context) error { return nil }

func (x *exact) close() error { return nil }

func (x *exact) layers(_ context.Context, p *pass) (map[string]float64, error) {
	// The single-threaded baseline of the same solves.
	var serial, serialApplies []float64
	for r := 0; r < 5; r++ {
		tr := newTracer()
		applies, _, err := x.solve(tr, 1)
		if err != nil {
			return nil, err
		}
		serial = append(serial, sum(durations(tr.snapshot(), "gamesolver.value")))
		serialApplies = append(serialApplies, float64(applies))
	}
	return map[string]float64{
		"gamesolver.new_ms":          median(perOp(p.spans, "gamesolver.new")),
		"gamesolver.value_ms":        median(perOp(p.spans, "gamesolver.value")),
		"gamesolver.serial_value_ms": median(serial),
		"gamesolver.states":          median(x.states),
		"gamesolver.applies":         median(x.applies),
		"gamesolver.useful_ratio":    median(serialApplies) / median(x.applies),
	}, nil
}
