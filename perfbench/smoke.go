package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
)

// runSmoke runs every workload at toy size: set-up, one operation
// untraced and one traced, the output checks and the layer metrics.
func runSmoke(ctx context.Context, seed uint64, work string, stdout io.Writer) error {
	for _, w := range workloads {
		e := &env{seed: seed, toy: true, work: work, procs: runtime.GOMAXPROCS(0)}
		if err := smokeOne(ctx, e, w); err != nil {
			return fmt.Errorf("smoke %s: %w", w.name, err)
		}
		fmt.Fprintf(stdout, "smoke %s ok\n", w.name)
	}
	return nil
}

func smokeOne(ctx context.Context, e *env, w workload) (err error) {
	inst, err := build(ctx, e, w, 0)
	if err != nil {
		return err
	}
	defer closeInto(inst, &err)
	if _, err := runPass(ctx, e, inst, nil, 1, 0); err != nil {
		return err
	}
	p, err := runPass(ctx, e, inst, newTracer(), 1, 0)
	if err != nil {
		return err
	}
	if err := inst.verify(ctx); err != nil {
		return err
	}
	layers, err := inst.layers(ctx, p)
	if err != nil {
		return err
	}
	for name, v := range layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("layer metric %s = %v", name, v)
		}
	}
	return nil
}
