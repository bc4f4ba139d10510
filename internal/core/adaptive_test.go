package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/vec"
)

// End-to-end: the resilient solver recovers from multiple failures when the
// redundancy uses the adaptive backup strategy (paper future work) instead
// of the Eqn. 5 neighbours.
func TestESRWithAdaptiveStrategy(t *testing.T) {
	a := matgen.CircuitLike(900, 3, 0.5, 13)
	want := seqSolution(t, a)
	const ranks, phi = 6, 3
	sched := faults.NewSchedule(faults.Simultaneous(5, 1, 2, 3))
	out := runSolver(t, ranks, func(c *cluster.Comm) (Result, distmat.Vector, error) {
		e := distmat.WorldEnv(c)
		p := partition.NewBlockRow(a.Rows, ranks)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrixStrategy(e, a.RowBlock(lo, hi), p, phi, 0, commplan.StrategyAdaptive)
		if err != nil {
			return Result{}, distmat.Vector{}, err
		}
		b := distmat.NewVector(p, e.Pos)
		for i := range b.Local {
			g := lo + i
			b.Local[i] = 1 + 0.13*float64(g%7)
		}
		x := distmat.NewVector(p, e.Pos)
		res, err := solveOne(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
		return res, x, err
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if len(out.res.Reconstructions) != 1 {
		t.Fatalf("reconstructions = %d", len(out.res.Reconstructions))
	}
	// Compare against a failure-free run on the same problem/strategy: the
	// solution (not the rhs of seqSolution) must match.
	ref := runSolver(t, ranks, func(c *cluster.Comm) (Result, distmat.Vector, error) {
		e := distmat.WorldEnv(c)
		p := partition.NewBlockRow(a.Rows, ranks)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrixStrategy(e, a.RowBlock(lo, hi), p, phi, 0, commplan.StrategyAdaptive)
		if err != nil {
			return Result{}, distmat.Vector{}, err
		}
		b := distmat.NewVector(p, e.Pos)
		for i := range b.Local {
			g := lo + i
			b.Local[i] = 1 + 0.13*float64(g%7)
		}
		x := distmat.NewVector(p, e.Pos)
		res, err := solveOne(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, nil)
		return res, x, err
	})
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if d := vec.MaxAbsDiff(out.x, ref.x); d > 1e-5*(1+vec.NrmInf(ref.x)) {
		t.Fatalf("disturbed run deviates from failure-free run by %g", d)
	}
	_ = want
}

// Adaptive redundancy must also survive worst-case contiguous failures that
// include all of a rank's chosen backups being alive somewhere: sweep a few
// failure windows.
func TestESRAdaptiveSurvivesContiguousWindows(t *testing.T) {
	a := matgen.CircuitLike(600, 3, 0.5, 29)
	const ranks, phi = 8, 2
	for start := 0; start < ranks; start += 3 {
		victims := faults.ContiguousRanks(start, phi, ranks)
		sched := faults.NewSchedule(faults.Simultaneous(3, victims...))
		out := runSolver(t, ranks, func(c *cluster.Comm) (Result, distmat.Vector, error) {
			e := distmat.WorldEnv(c)
			p := partition.NewBlockRow(a.Rows, ranks)
			lo, hi := p.Range(e.Pos)
			m, err := distmat.NewMatrixStrategy(e, a.RowBlock(lo, hi), p, phi, 0, commplan.StrategyAdaptive)
			if err != nil {
				return Result{}, distmat.Vector{}, err
			}
			b := distmat.NewVector(p, e.Pos)
			for i := range b.Local {
				b.Local[i] = 1
			}
			x := distmat.NewVector(p, e.Pos)
			res, err := solveOne(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-8}, sched)
			return res, x, err
		})
		if out.err != nil {
			t.Fatalf("window %v: %v", victims, out.err)
		}
		if !out.res.Converged {
			t.Fatalf("window %v: did not converge", victims)
		}
	}
}
