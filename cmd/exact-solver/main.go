// Command exact-solver computes the exact broadcast time t*(Tn) for small
// n by solving the full adversary game (experiment E7), and optionally
// prints an optimal schedule.
//
// Usage:
//
//	exact-solver -max-n 5
//	exact-solver -max-n 5 -schedule
//	exact-solver -max-n 6 -force -parallel 0            # all cores
//	exact-solver -max-n 6 -force -table results/tables  # resume + persist
//
// With -table DIR, the solver loads DIR/n<k>.solvetable before solving
// (a previous run's table — even a partial autosave from an interrupted
// solve — pre-warms the search) and saves the full table back after.
// While solving, a live progress line goes to stderr when it is a
// terminal (suppress with -quiet), and the table is autosaved every 30
// seconds so long n=6+ runs can be killed and resumed.
//
// Results go to stdout and are the same bytes for any -parallel value;
// wall-clock solve times go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dyntreecast/internal/bounds"
	"dyntreecast/internal/core"
	"dyntreecast/internal/gamesolver"
	"dyntreecast/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exact-solver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exact-solver", flag.ContinueOnError)
	var (
		maxN     = fs.Int("max-n", gamesolver.MaxN, "solve for n = 2..max-n")
		schedule = fs.Bool("schedule", false, "print an optimal tree schedule per n")
		force    = fs.Bool("force", false, "allow n above the default safety limit (slow)")
		parallel = fs.Int("parallel", 0, "solver worker goroutines (0 = all cores, 1 = serial)")
		tableDir = fs.String("table", "", "solve-table directory: load n<k>.solvetable before solving, save after")
		quiet    = fs.Bool("quiet", false, "suppress the live progress line")
		deepN    = fs.Int("deep", 0, "run the anytime deep-line witness search at this n (6 or 7 are practical) instead of exact solving")
		budget   = fs.Int("budget", 30000, "state-expansion budget for -deep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deepN > 0 {
		return runDeep(*deepN, *budget)
	}

	for n := 2; n <= *maxN; n++ {
		opts := []gamesolver.Option{gamesolver.Parallel(*parallel)}
		if *force {
			opts = append(opts, gamesolver.WithMaxN(*maxN))
		}
		// The progress callback carries both the live line and the table
		// autosave, so it is registered whenever either is wanted — an
		// unattended redirected run still autosaves.
		prog := &progressLine{start: time.Now(), n: n, draw: !*quiet && stderrIsTerminal()}
		if prog.draw || *tableDir != "" {
			opts = append(opts, gamesolver.WithProgress(0, prog.update))
		}
		s, err := gamesolver.New(n, opts...)
		if err != nil {
			return err
		}
		var tablePath string
		if *tableDir != "" {
			tablePath = filepath.Join(*tableDir, fmt.Sprintf("n%d.solvetable", n))
			if loaded, err := s.LoadTable(tablePath); err == nil {
				fmt.Printf("# n=%d: loaded %d states from %s\n", n, loaded, tablePath)
			} else if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "exact-solver: ignoring table %s: %v\n", tablePath, err)
			}
			prog.solver, prog.table = s, tablePath
			prog.lastSave = time.Now()
		}
		start := time.Now()
		v := s.Value()
		prog.clear()
		status := "matches lower bound"
		if v != bounds.Lower(n) {
			status = fmt.Sprintf("DIFFERS from lower bound %d", bounds.Lower(n))
		}
		fmt.Printf("n=%d  t*=%d  lower=%d  upper=%d  states=%d  (%s)\n",
			n, v, bounds.Lower(n), bounds.UpperLinear(n), s.StatesExplored(), status)
		fmt.Fprintf(os.Stderr, "exact-solver: n=%d solved in %v\n", n, time.Since(start).Round(time.Millisecond))
		if v > bounds.UpperLinear(n) {
			return fmt.Errorf("n=%d: exact value %d exceeds the paper's upper bound %d",
				n, v, bounds.UpperLinear(n))
		}
		if tablePath != "" {
			if err := s.SaveTable(tablePath); err != nil {
				return err
			}
			fmt.Printf("# n=%d: saved %d states to %s\n", n, s.StatesExplored(), tablePath)
		}
		if *schedule {
			if err := printSchedule(n, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// progressLine renders a throttled single-line status to stderr and
// autosaves the solve table every 30 seconds. The solver invokes update
// from at most one goroutine at a time (its progress lock), so no
// further synchronization is needed here.
type progressLine struct {
	start    time.Time
	n        int
	draw     bool // render the live line (stderr is a terminal, not -quiet)
	solver   *gamesolver.Solver
	table    string
	lastTick time.Time
	lastSave time.Time
	active   bool
}

func (p *progressLine) update(st gamesolver.Stats) {
	now := time.Now()
	if p.draw && now.Sub(p.lastTick) >= 300*time.Millisecond {
		p.lastTick = now
		p.active = true
		fmt.Fprintf(os.Stderr, "\r\033[Kn=%d solving: states=%d applies=%d pruned=%d (%.0fs)",
			p.n, st.States, st.Applies, st.Deduped+st.Dominated,
			now.Sub(p.start).Seconds())
	}
	if p.table != "" && now.Sub(p.lastSave) >= 30*time.Second {
		p.lastSave = now
		if err := p.solver.SaveTable(p.table); err != nil {
			fmt.Fprintf(os.Stderr, "\nexact-solver: autosave failed: %v\n", err)
		}
	}
}

func (p *progressLine) clear() {
	if p.active {
		fmt.Fprint(os.Stderr, "\r\033[K")
		p.active = false
	}
}

// stderrIsTerminal reports whether stderr is attached to a terminal, so
// the live progress line never pollutes redirected logs.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func runDeep(n, budget int) error {
	start := time.Now()
	line, depth, err := gamesolver.DeepestLine(n, budget, 4)
	if err != nil {
		return err
	}
	replayed, err := core.BroadcastTime(n, replayAdv{line})
	if err != nil {
		return err
	}
	fmt.Printf("n=%d budget=%d: certified t*(Tn) >= %d (search depth %d, replay %d, lower-bound formula %d)\n",
		n, budget, replayed, depth, replayed, bounds.Lower(n))
	fmt.Fprintf(os.Stderr, "exact-solver: deep-line search took %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// replayAdv repeats the last tree once the schedule is exhausted.
type replayAdv struct{ trees []*tree.Tree }

func (r replayAdv) Next(v core.View) *tree.Tree {
	if len(r.trees) == 0 {
		return nil
	}
	if i := v.Round(); i < len(r.trees) {
		return r.trees[i]
	}
	return r.trees[len(r.trees)-1]
}

func printSchedule(n int, s *gamesolver.Solver) error {
	fmt.Printf("  optimal schedule for n=%d:\n", n)
	_, err := core.Run(n, gamesolver.Optimal{S: s}, core.Broadcast,
		core.WithObserver(func(round int, t *tree.Tree, e *core.Engine) {
			fmt.Printf("    round %d: %v (leaves=%d, path=%v)\n",
				round, t, t.NumLeaves(), t.IsPath())
		}))
	return err
}
