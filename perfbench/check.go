package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	esr "repro"
	"repro/internal/core"
	"repro/internal/engine"
)

// tol is the relative residual every solve targets (the library default).
const tol = 1e-8

// verify checks one solution: converged, a true relative residual
// ||b - A x|| / ||b|| recomputed here from x within tol, and, when
// wantIters > 0, the iteration count (ESR reconstruction is exact, so a
// solve with failures takes as many iterations as the failure-free one).
func verify(a *esr.Matrix, rhs, x []float64, res core.Result, wantIters int) error {
	if !res.Converged {
		return fmt.Errorf("not converged after %d iterations", res.Iterations)
	}
	if len(x) != a.Rows {
		return fmt.Errorf("solution has length %d, want %d", len(x), a.Rows)
	}
	if rel := esr.ResidualNorm(a, x, rhs) / norm(rhs); !(rel <= tol) {
		return fmt.Errorf("true relative residual %.3g above %g", rel, tol)
	}
	if wantIters > 0 && res.Iterations != wantIters {
		return fmt.Errorf("%d iterations, failure-free solve took %d", res.Iterations, wantIters)
	}
	return nil
}

// verifyJob checks a daemon job's reported result (the daemon keeps no
// solution vector, so the true residual is the one it recomputed).
func verifyJob(st jobStatus, rhsNorm float64, wantIters int) error {
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Result == nil {
		return fmt.Errorf("job %s done without a result", st.ID)
	}
	res := st.Result.Result
	if !res.Converged {
		return fmt.Errorf("job %s not converged after %d iterations", st.ID, res.Iterations)
	}
	if rel := res.TrueResidual / rhsNorm; !(rel <= tol) {
		return fmt.Errorf("job %s true relative residual %.3g above %g", st.ID, rel, tol)
	}
	if wantIters > 0 && res.Iterations != wantIters {
		return fmt.Errorf("job %s took %d iterations, failure-free solve took %d", st.ID, res.Iterations, wantIters)
	}
	return nil
}

// bitwiseEqual reports whether two solutions are identical bit for bit, the
// repository's determinism oracle.
func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// tally counts one operation and, when err is non-nil, its failure. The
// first few failures are kept for the report.
func (b *bench) tally(op string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, op+": "+err.Error())
	}
	return false
}

func (b *bench) errorRate() float64 {
	if b.attempted == 0 {
		return 1
	}
	return float64(b.failed) / float64(b.attempted)
}

// selfTest proves the checks can fail, so that a zero error rate is not
// vacuous: a perturbed solution, a non-converged solve and a job the daemon
// refuses must each be caught. It runs on a small Poisson system and a
// throwaway daemon, outside the tally.
func (b *bench) selfTest(ctx context.Context) error {
	a := esr.Poisson2D(16, 16)
	s, err := esr.NewSolver(a, esr.WithRanks(4), esr.WithPhi(phi))
	if err != nil {
		return err
	}
	defer s.Close()
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	sol, err := s.Solve(ctx, rhs)
	if err != nil {
		return err
	}
	if err := verify(a, rhs, sol.X, sol.Result, sol.Result.Iterations); err != nil {
		return fmt.Errorf("self-test: a good solve fails its check: %w", err)
	}
	var caught []string
	perturbed := append([]float64(nil), sol.X...)
	perturbed[a.Rows/2] *= 1 + 1e-6
	if verify(a, rhs, perturbed, sol.Result, 0) != nil {
		caught = append(caught, "perturbed")
	}
	short, err := s.Solve(ctx, rhs, esr.WithMaxIterations(3))
	if err == nil && verify(a, rhs, short.X, short.Result, 0) != nil {
		caught = append(caught, "non-converged")
	}
	if err == nil && verify(a, rhs, sol.X, sol.Result, sol.Result.Iterations+1) != nil {
		caught = append(caught, "iteration-count")
	}

	d, _, err := startDaemon(b.esrd, b.tmp, "selftest", false)
	if err != nil {
		return err
	}
	defer d.stop()
	// phi must stay below the rank count: the daemon refuses this job, and
	// a job burst counts any refused submission as failed.
	_, _, err = d.submit(ctx, engine.JobSpec{Matrix: b.wl.gen, Config: engine.Config{Ranks: 2, Phi: 5}})
	var refused *refusedError
	if errors.As(err, &refused) {
		caught = append(caught, "refused")
	}
	b.selfTestOK = len(caught) == 4
	if !b.selfTestOK {
		fmt.Printf("self-test: only %v of perturbed, non-converged, iteration-count, refused were caught\n", caught)
	}
	return nil
}
