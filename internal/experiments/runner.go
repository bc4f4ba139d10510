// Package experiments reproduces the paper's evaluation (Sec. 7): Table 1
// (test matrices), Table 2 (runtime overheads of the resilient solver,
// undisturbed and with 1/3/8 simultaneous node failures at start/center rank
// placements and 20/50/80% progress), Table 3 (relative residual difference
// metric, Eqn. 7), Figures 1-4 (runtime/overhead box plots), plus the
// Sec. 4.2 analytic-bound evaluation on the communication model.
//
// Every experiment runs the full distributed stack in-process: an SPMD
// cluster of `Ranks` goroutine ranks, block-row distributed matrices, the
// ESR redundancy protocol and reconstruction. Runtimes are wall-clock solver
// times; the modelled communication overheads come from internal/commmodel.
package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// Config controls the experiment sweep dimensions. The zero value is not
// usable; start from DefaultConfig or QuickConfig.
type Config struct {
	// Scale selects the matrix sizes (tiny / small / paper).
	Scale matgen.Scale
	// Ranks is the number of simulated compute nodes (the paper uses 128 on
	// VSC3; the default here is 16).
	Ranks int
	// Reps is the number of repetitions per configuration (the paper uses
	// >= 5).
	Reps int
	// Phis are the redundancy levels evaluated (paper: 1, 3, 8).
	Phis []int
	// Progresses are the failure times as fractions of the reference
	// iteration count (paper: 0.2, 0.5, 0.8).
	Progresses []float64
	// Locations are the failed-rank placements: "start" (rank 0) and/or
	// "center" (rank N/2), as in the paper's Sec. 7.1.
	Locations []string
	// Tol is the solver tolerance (paper: 1e-8).
	Tol float64
	// LocalTol is the reconstruction tolerance (paper: 1e-14).
	LocalTol float64
}

// DefaultConfig mirrors the paper's sweep at the default benchmark scale.
func DefaultConfig() Config {
	return Config{
		Scale:      matgen.ScaleSmall,
		Ranks:      16,
		Reps:       3,
		Phis:       []int{1, 3, 8},
		Progresses: []float64{0.2, 0.5, 0.8},
		Locations:  []string{"start", "center"},
		Tol:        1e-8,
		LocalTol:   1e-14,
	}
}

// QuickConfig is a reduced sweep for tests and testing.B benchmarks: tiny
// matrices, 8 ranks, phi up to 3.
func QuickConfig() Config {
	return Config{
		Scale:      matgen.ScaleTiny,
		Ranks:      8,
		Reps:       2,
		Phis:       []int{1, 3},
		Progresses: []float64{0.2, 0.5, 0.8},
		Locations:  []string{"start", "center"},
		Tol:        1e-8,
		LocalTol:   1e-14,
	}
}

// StartRank returns the first failed rank for a location name.
func StartRank(location string, ranks int) (int, error) {
	switch location {
	case "start":
		return 0, nil
	case "center":
		return ranks / 2, nil
	}
	return 0, fmt.Errorf("experiments: unknown location %q (want start or center)", location)
}

// Measurement is one solver run's observables.
type Measurement struct {
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// ReconstructTime is the part spent reconstructing state.
	ReconstructTime time.Duration
	// Iterations to convergence.
	Iterations int
	// Delta is the Eqn. 7 residual-deviation metric.
	Delta float64
	// Converged reports whether the tolerance was met.
	Converged bool
}

// rhsFor fills the deterministic right-hand side used by all experiments.
func rhsFor(lo, hi int) []float64 {
	b := make([]float64, hi-lo)
	for i := range b {
		g := lo + i
		b[i] = 1 + math.Sin(float64(g)*0.13)
	}
	return b
}

// SolveOnce runs one distributed solve of A x = b on a fresh cluster with
// the given redundancy level and failure schedule (nil for none) and returns
// the rank-0 measurement. phi = 0 with a nil schedule runs the plain
// non-resilient PCG — the ESR strategy with nothing to protect (the
// reference t0 of Table 2).
func SolveOnce(a *sparse.CSR, ranks, phi int, sched *faults.Schedule, tol, localTol float64) (Measurement, error) {
	rt := cluster.New(ranks)
	p := partition.NewBlockRow(a.Rows, ranks)
	var mu sync.Mutex
	var meas Measurement
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		// Point-Jacobi preconditioning keeps the iteration counts in the
		// hundreds on the generated (well-conditioned) matrices, matching
		// the amortisation regime of the paper's experiments; the recovery
		// subsystem still uses block-local ILU like the paper (Sec. 6).
		bj, err := precond.NewJacobi(m.Diag())
		if err != nil {
			return err
		}
		prec := core.LocalPrecond{P: bj}
		b := distmat.Vector{P: p, Pos: e.Pos, Local: rhsFor(lo, hi)}
		x := distmat.NewVector(p, e.Pos)
		opts := core.Options{Tol: tol, LocalTol: localTol}
		rs, errs, err := core.ResilientPCG(e, m, []distmat.Vector{x}, []distmat.Vector{b}, prec, opts, sched, core.NewESRStrategy())
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			return err
		}
		res := rs[0]
		if c.Rank() == 0 {
			mu.Lock()
			meas = Measurement{
				Runtime:         res.SolveTime,
				ReconstructTime: res.ReconstructTime,
				Iterations:      res.Iterations,
				Delta:           res.Delta,
				Converged:       res.Converged,
			}
			mu.Unlock()
		}
		return nil
	})
	return meas, err
}

// ReferenceRun solves the reference (non-resilient) problem Reps times and
// returns the measurements. The mean runtime is the paper's t0. A discarded
// warmup solve precedes the measurements (heap and scheduler warmup; the
// paper's repeated MPI runs have the same effect).
func (cfg Config) ReferenceRun(a *sparse.CSR) ([]Measurement, error) {
	if _, err := SolveOnce(a, cfg.Ranks, 0, nil, cfg.Tol, cfg.LocalTol); err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := SolveOnce(a, cfg.Ranks, 0, nil, cfg.Tol, cfg.LocalTol)
		if err != nil {
			return nil, err
		}
		if !m.Converged {
			return nil, fmt.Errorf("experiments: reference run did not converge")
		}
		out = append(out, m)
	}
	return out, nil
}

// UndisturbedRun solves with redundancy phi but no failures, Reps times.
func (cfg Config) UndisturbedRun(a *sparse.CSR, phi int) ([]Measurement, error) {
	out := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := SolveOnce(a, cfg.Ranks, phi, nil, cfg.Tol, cfg.LocalTol)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// FailureRun solves with psi = phi simultaneous failures of contiguous ranks
// at the given location, injected at the given progress fraction of the
// reference iteration count, Reps times.
func (cfg Config) FailureRun(a *sparse.CSR, phi int, location string, progress float64, refIters int) ([]Measurement, error) {
	start, err := StartRank(location, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	victims := faults.ContiguousRanks(start, phi, cfg.Ranks)
	iter := faults.IterationAtProgress(progress, refIters)
	sched := faults.NewSchedule(faults.Simultaneous(iter, victims...))
	out := make([]Measurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := SolveOnce(a, cfg.Ranks, phi, sched, cfg.Tol, cfg.LocalTol)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runtimes extracts the runtimes in seconds.
func runtimes(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Runtime.Seconds()
	}
	return out
}

// reconstructTimes extracts reconstruction times in seconds.
func reconstructTimes(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.ReconstructTime.Seconds()
	}
	return out
}

// deltas extracts the Eqn. 7 metric values.
func deltas(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Delta
	}
	return out
}
