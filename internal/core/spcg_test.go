package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/precond"
	"repro/internal/vec"
)

func runSPCG(t *testing.T, ranks, phi int, sched *faults.Schedule, tol float64) harnessOut {
	t.Helper()
	a := matgen.Poisson2D(18, 18)
	return runSolver(t, ranks, func(c *cluster.Comm) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, phi)
		if err != nil {
			return Result{}, x, err
		}
		ic, err := precond.NewIC0Split(m.OwnBlock())
		if err != nil {
			return Result{}, x, err
		}
		res, err := SPCG(e, m, x, b, ic, Options{Tol: tol}, sched)
		return res, x, err
	})
}

func TestSPCGSolves(t *testing.T) {
	a := matgen.Poisson2D(18, 18)
	want := seqSolution(t, a)
	out := runSPCG(t, 4, 0, nil, 1e-10)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-5 {
		t.Fatalf("solution error %g", d)
	}
	if math.Abs(out.res.Delta) > 1e-4 {
		t.Fatalf("Delta = %g", out.res.Delta)
	}
}

func TestSPCGWithFailures(t *testing.T) {
	a := matgen.Poisson2D(18, 18)
	want := seqSolution(t, a)
	sched := faults.NewSchedule(faults.Simultaneous(4, 1, 2))
	out := runSPCG(t, 6, 2, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if len(out.res.Reconstructions) != 1 {
		t.Fatalf("reconstructions = %d", len(out.res.Reconstructions))
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
		t.Fatalf("solution error %g", d)
	}
}

func TestSPCGOverlappingFailures(t *testing.T) {
	sched := faults.NewSchedule(
		faults.Simultaneous(3, 1),
		faults.Overlapping(3, phaseXSystem, 4),
	)
	out := runSPCG(t, 6, 2, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if out.res.Reconstructions[0].Restarts < 1 {
		t.Fatal("expected a restart")
	}
}

func TestSPCGFailureAtIterationZero(t *testing.T) {
	sched := faults.NewSchedule(faults.Simultaneous(0, 3))
	out := runSPCG(t, 6, 1, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
}

func TestSPCGMatchesPCGIterates(t *testing.T) {
	// SPCG with M = L L^T and PCG with the same M as ApplyInv are
	// mathematically equivalent: iteration counts must be very close and
	// the solutions must agree.
	a := matgen.Poisson2D(18, 18)
	pcg := runSolver(t, 4, func(c *cluster.Comm) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0)
		if err != nil {
			return Result{}, x, err
		}
		ic, err := precond.NewIC0Split(m.OwnBlock())
		if err != nil {
			return Result{}, x, err
		}
		res, err := solveOne(e, m, x, b, LocalPrecond{P: ic}, Options{Tol: 1e-10}, nil)
		return res, x, err
	})
	if pcg.err != nil {
		t.Fatal(pcg.err)
	}
	spcg := runSPCG(t, 4, 0, nil, 1e-10)
	if spcg.err != nil {
		t.Fatal(spcg.err)
	}
	diff := spcg.res.Iterations - pcg.res.Iterations
	if diff < -2 || diff > 2 {
		t.Fatalf("iteration counts diverge: SPCG %d vs PCG %d", spcg.res.Iterations, pcg.res.Iterations)
	}
	if d := vec.MaxAbsDiff(spcg.x, pcg.x); d > 1e-6 {
		t.Fatalf("solutions differ by %g", d)
	}
}

func TestSPCGRequiresSplit(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	out := runSolver(t, 2, func(c *cluster.Comm) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0)
		if err != nil {
			return Result{}, x, err
		}
		res, err := SPCG(e, m, x, b, nil, Options{}, nil)
		return res, x, err
	})
	if out.err == nil {
		t.Fatal("expected error for nil split preconditioner")
	}
}
