package esr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
)

// ErrSolverClosed reports a Solve on (or aborted by) a closed Solver.
var ErrSolverClosed = engine.ErrPreparedClosed

// Solver is a reusable prepare-once / solve-many session over one system
// matrix. NewSolver partitions the matrix over the rank cluster, runs the
// distributed symbolic phase (halo plan and, for phi >= 1, the redundancy
// protocol), and factors the block preconditioners exactly once; every
// subsequent Solve reuses that state and pays only for the iteration loop.
// When serving many right-hand sides on the same system this amortizes the
// dominant setup cost — see BenchmarkPreparedVsOneShot.
//
// Solve and SolveBatch are safe for concurrent use: each solve runs on its
// own short-lived rank runtime against forked per-rank state, so concurrent
// solves (and their injected failures) cannot disturb each other. Close
// tears the session down, aborting in-flight solves.
//
//	s, err := esr.NewSolver(a, esr.WithRanks(8), esr.WithPhi(2))
//	defer s.Close()
//	for _, b := range rhs {
//	    sol, err := s.Solve(ctx, b)
//	    ...
//	}
type Solver struct {
	prep *engine.Prepared
	cfg  Config // the session's normalized configuration
}

// NewSolver builds a reusable solver session for the SPD system matrix a.
// The zero option set selects the paper's experimental setup (8 ranks,
// block-Jacobi ILU(0), phi 0). Use FromConfig to lower a wire-format Config
// onto the options. The caller must Close the session when done.
func NewSolver(a *Matrix, opts ...Option) (*Solver, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	prep, err := engine.Prepare(a, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Ranks = prep.Ranks() // reflect the clamp to the matrix size
	return &Solver{prep: prep, cfg: cfg.WithDefaults()}, nil
}

// N returns the dimension of the prepared system.
func (s *Solver) N() int { return s.prep.N() }

// Ranks returns the number of simulated compute nodes of the session.
func (s *Solver) Ranks() int { return s.prep.Ranks() }

// Phi returns the redundancy level of the session.
func (s *Solver) Phi() int { return s.prep.Phi() }

// Config returns the session's normalized configuration (the wire-format
// equivalent of the options it was built with).
func (s *Solver) Config() Config { return s.cfg }

// StrategyName returns the session's failure-recovery strategy (one of the
// Strategy* wire names).
func (s *Solver) StrategyName() string { return s.prep.StrategyName() }

// StrategyStats returns the session's aggregated recovery-strategy
// observables across every finished solve: steady-state protection volumes
// (redundant copies for ESR, reliable-storage traffic for checkpoint),
// recovery episodes, cascading restarts, and redone iterations. Use it to
// compare the strategies' overhead and recovery cost on live workloads.
func (s *Solver) StrategyStats() StrategyStats { return s.prep.StrategyStats() }

// solveOpts resolves the per-call configuration: the session defaults,
// overridden by the solve-scoped opts. Preparation-scoped fields must not
// change — the session's partition, redundancy protocol and preconditioner
// are already built.
// The resolved Config is returned alongside for the batch-scoped fields
// (BlockSize) that do not lower onto SolveOpts.
func (s *Solver) solveOpts(opts []Option) (engine.SolveOpts, Config, error) {
	cfg := s.cfg
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return engine.SolveOpts{}, Config{}, err
		}
	}
	// Normalize before comparing: s.cfg is already defaulted, and a per-call
	// FromConfig may have reset zero-valued prep fields that default back to
	// the session's values (which is not a prep-scope change).
	cfg = cfg.WithDefaults()
	if cfg.Ranks > s.prep.N() {
		cfg.Ranks = s.prep.N() // mirror the session's clamp to the matrix size
	}
	if cfg.Ranks != s.cfg.Ranks || cfg.Phi != s.cfg.Phi ||
		cfg.Preconditioner != s.cfg.Preconditioner || cfg.SSOROmega != s.cfg.SSOROmega ||
		cfg.Transport != s.cfg.Transport || cfg.TransportSeed != s.cfg.TransportSeed ||
		cfg.Strategy != s.cfg.Strategy || cfg.CheckpointInterval != s.cfg.CheckpointInterval ||
		cfg.TwinInterval != s.cfg.TwinInterval || cfg.SDCCheckInterval != s.cfg.SDCCheckInterval ||
		cfg.Threads != s.cfg.Threads {
		return engine.SolveOpts{}, Config{}, fmt.Errorf(
			"esr: preparation-scoped option (ranks, phi, preconditioner, ssor omega, transport, strategy, checkpoint interval, twin interval, sdc check interval, threads) passed to Solve; set it on NewSolver")
	}
	return engine.SolveOpts{
		Tol: cfg.Tol, MaxIter: cfg.MaxIter, LocalTol: cfg.LocalTol,
		Schedule: cfg.Schedule, Method: cfg.Method, Progress: cfg.Progress,
		Tracer: cfg.Tracer,
	}, cfg, nil
}

// Solve runs one solve of A x = b against the prepared session state. The
// session's solve-scoped settings (tolerances, schedule, progress, method)
// can be overridden per call with opts; preparation-scoped options are
// rejected, and a per-call WithMethod must be compatible with the prepared
// preconditioner (SPCG needs an IC0 session). Cancelling ctx aborts only
// this solve; sibling solves on the same session are unaffected.
func (s *Solver) Solve(ctx context.Context, b []float64, opts ...Option) (Solution, error) {
	so, _, err := s.solveOpts(opts)
	if err != nil {
		return Solution{}, err
	}
	return s.prep.Solve(ctx, b, so)
}

// SolveBatch solves one system per right-hand side, reusing the prepared
// session state for all of them. The batch is chunked into
// WithBlockSize-wide groups solved in lockstep by the resilient PCG driver
// at k columns — one fused k-column SpMM, k-strided halo frames and
// length-k allreduces per iteration, one recovery episode per failure under
// the esr, checkpoint and restart strategies, with or without an SDC check
// — which is the throughput path for many right-hand sides (see
// BenchmarkSolveBatch); column c of a blocked group is bitwise identical to
// Solve(ctx, bs[c]). The twin strategy, schedules with corruption events
// and SPCG fall back to concurrent looped single-RHS solves, also
// bit-identical.
//
// The whole batch is validated before any solve launches: a column with the
// wrong length or a non-finite element fails fast with a typed
// *InvalidRHSError naming it, having spent no solve work. The returned slice
// is aligned with bs; entries whose solve broke down are zero-valued and the
// joined errors (each naming its column) are returned alongside the
// successful solutions. Cancelling ctx aborts the whole batch.
func (s *Solver) SolveBatch(ctx context.Context, bs [][]float64, opts ...Option) ([]Solution, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	so, cfg, err := s.solveOpts(opts)
	if err != nil {
		return nil, err
	}
	if err := s.prep.ValidateBatch(bs); err != nil {
		return nil, err
	}
	if cfg.BlockSize > 1 && s.prep.CanSolveBlock(so) {
		return s.solveBlocked(ctx, bs, so, cfg.BlockSize)
	}
	// Looped fallback: each solve spawns Ranks goroutine ranks; bound the
	// in-flight solves so a huge batch degrades to a pipeline instead of an
	// army of runtimes.
	workers := runtime.GOMAXPROCS(0)/s.prep.Ranks() + 1
	if workers > len(bs) {
		workers = len(bs)
	}
	sols := make([]Solution, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b []float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sol, err := s.prep.Solve(ctx, b, so)
			if err != nil {
				errs[i] = fmt.Errorf("rhs %d: %w", i, err)
				return
			}
			sols[i] = sol
		}(i, b)
	}
	wg.Wait()
	return sols, errors.Join(errs...)
}

// solveBlocked runs the batch through Prepared.SolveBlock in BlockSize-wide
// groups, sequentially: each group already runs all ranks in lockstep, so
// group-level concurrency would only fight over cores.
func (s *Solver) solveBlocked(ctx context.Context, bs [][]float64, so engine.SolveOpts, k int) ([]Solution, error) {
	sols := make([]Solution, len(bs))
	var errs []error
	for lo := 0; lo < len(bs); lo += k {
		hi := lo + k
		if hi > len(bs) {
			hi = len(bs)
		}
		blockSols, colErrs, err := s.prep.SolveBlock(ctx, bs[lo:hi], so)
		if err != nil {
			return nil, err
		}
		for c := lo; c < hi; c++ {
			sols[c] = blockSols[c-lo]
			if colErrs[c-lo] != nil {
				errs = append(errs, fmt.Errorf("rhs %d: %w", c, colErrs[c-lo]))
			}
		}
	}
	return sols, errors.Join(errs...)
}

// Close tears the session down: subsequent Solve calls fail with
// ErrSolverClosed, in-flight solves are aborted and return ErrSolverClosed,
// and Close blocks until they have unwound. Idempotent.
func (s *Solver) Close() error {
	s.prep.Close()
	return nil
}
