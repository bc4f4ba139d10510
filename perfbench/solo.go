package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	esr "repro"
	"repro/internal/core"
)

// timedSolve runs one solve and returns its wall-clock time.
func timedSolve(ctx context.Context, s *esr.Solver, rhs []float64, opts ...esr.Option) (esr.Solution, float64, error) {
	t0 := time.Now()
	sol, err := s.Solve(ctx, rhs, opts...)
	return sol, time.Since(t0).Seconds(), err
}

// determinism re-solves b_0 at the end of the run, which must reproduce
// round 0's x bit for bit.
func (b *bench) determinism(ctx context.Context) {
	if b.x0 == nil {
		return // round 0 failed and is already counted
	}
	sol, _, err := timedSolve(ctx, b.s3, ones(b.a.Rows))
	if err == nil && !bitwiseEqual(sol.X, b.x0) {
		err = errors.New("re-solving b_0 gave a different x")
	}
	b.tally("determinism", err)
}

// setupRep is one set-up sample: esr.NewSolver at phi 3 (partition, halo
// plan, redundancy protocol, factorisation). The new session replaces the
// run's phi 3 session.
func (b *bench) setupRep() error {
	sp := b.spans.start("setup.NewSolver", 0)
	t0 := time.Now()
	s, err := esr.NewSolver(b.a, esr.WithRanks(b.wl.ranks), esr.WithPhi(phi))
	d := time.Since(t0)
	b.spans.end(sp)
	if err != nil {
		return fmt.Errorf("esr session: %w", err)
	}
	b.setupS = append(b.setupS, d.Seconds())
	b.s3.Close()
	b.s3 = s
	return nil
}

// soloRound solves b_r (b = ones in round 0, seeded later) four ways: the
// phi=0 reference, failure-free ESR, ESR losing three contiguous ranks
// together, and ESR losing two ranks with a third failing during recovery
// phase 3.
func (b *bench) soloRound(ctx context.Context, r int) {
	rhs := ones(b.a.Rows)
	if r > 0 {
		rhs = b.rhs()
	}
	sp := b.spans.start("solve.ref", 0)
	sol, d, err := timedSolve(ctx, b.ref, rhs)
	b.spans.end(sp)
	if b.tally("ref", solveErr(b.a, rhs, sol, err, 0)) {
		b.t["ref"] = append(b.t["ref"], d)
	}

	// Traced runs solve b_r once more with the tracer, before the untraced
	// solve on odd rounds and after it on even ones, so that cache warmth
	// does not bias trace.overhead_frac.
	var tracedX []float64
	if b.traced && r%2 == 1 {
		tracedX = b.tracedSolve(ctx, rhs)
	}
	sp = b.spans.start("solve.esr", 0)
	sol, d, err = timedSolve(ctx, b.s3, rhs)
	b.spans.end(sp)
	if !b.tally("esr", solveErr(b.a, rhs, sol, err, 0)) {
		return
	}
	b.t["esr"] = append(b.t["esr"], d)
	iters := sol.Result.Iterations
	b.t["iters"] = append(b.t["iters"], float64(iters))
	if r == 0 {
		b.x0, b.onesIter = sol.X, iters
	}
	if b.traced && r%2 == 0 {
		tracedX = b.tracedSolve(ctx, rhs)
	}
	if tracedX != nil {
		var err error
		if !bitwiseEqual(tracedX, sol.X) {
			err = errors.New("traced solve differs from the untraced one")
		}
		b.tally("traced-determinism", err)
	}

	ranks := b.failRanks(3)
	sp = b.spans.start("solve.fail3", 0)
	sol, d, err = timedSolve(ctx, b.s3, rhs,
		esr.WithSchedule(esr.NewSchedule(esr.Simultaneous(b.failIter(iters), ranks...))))
	b.spans.end(sp)
	if b.tally("fail3", solveErr(b.a, rhs, sol, err, iters)) {
		b.t["fail3"] = append(b.t["fail3"], d)
		for _, rc := range sol.Result.Reconstructions {
			b.t["recovery"] = append(b.t["recovery"], rc.Duration.Seconds())
			b.t["recovery_sub_iters"] = append(b.t["recovery_sub_iters"], float64(rc.SubIterations))
		}
	}

	ranks = b.failRanks(3)
	it := b.failIter(iters)
	sp = b.spans.start("solve.overlap", 0)
	sol, d, err = timedSolve(ctx, b.s3, rhs, esr.WithSchedule(esr.NewSchedule(
		esr.Simultaneous(it, ranks[0], ranks[1]), esr.Overlapping(it, 3, ranks[2]))))
	b.spans.end(sp)
	if b.tally("overlap", solveErr(b.a, rhs, sol, err, iters)) {
		b.t["overlap"] = append(b.t["overlap"], d)
		restarts := 0
		for _, rc := range sol.Result.Reconstructions {
			restarts += rc.Restarts
		}
		b.t["overlap_restarts"] = append(b.t["overlap_restarts"], float64(restarts))
	}
}

// solveErr folds a solve's error and its check into one error.
func solveErr(a *esr.Matrix, rhs []float64, sol esr.Solution, err error, wantIters int) error {
	if err != nil {
		return err
	}
	return verify(a, rhs, sol.X, sol.Result, wantIters)
}

// phaseTracer sums the per-iteration phase times the solver reports.
type phaseTracer struct {
	iters                    int
	spmv, precond, allreduce time.Duration
}

func (t *phaseTracer) TraceIteration(it core.IterationTrace) {
	t.iters++
	t.spmv += it.SpMV
	t.precond += it.Precond
	t.allreduce += it.Allreduce
}

func (t *phaseTracer) TraceRecovery(core.RecoveryTrace) {}

// tracedSolve solves rhs failure-free with the observer-only tracer and
// returns x, or nil if the solve failed its check. It records the traced
// wall time, the phase split, and the redundancy volume per iteration from
// the session's strategy counters.
func (b *bench) tracedSolve(ctx context.Context, rhs []float64) []float64 {
	tr := &phaseTracer{}
	before := b.s3.StrategyStats().RedundancyFloats
	sp := b.spans.start("solve.esr.traced", 0)
	sol, d, err := timedSolve(ctx, b.s3, rhs, esr.WithTracer(tr))
	b.spans.endWith(sp, map[string]float64{
		"iterations": float64(tr.iters), "spmv_ns": float64(tr.spmv),
		"precond_ns": float64(tr.precond), "allreduce_ns": float64(tr.allreduce),
	})
	if !b.tally("esr.traced", solveErr(b.a, rhs, sol, err, 0)) {
		return nil
	}
	redundancy := b.s3.StrategyStats().RedundancyFloats - before
	b.t["esr_traced"] = append(b.t["esr_traced"], d)
	b.t["spmv"] = append(b.t["spmv"], tr.spmv.Seconds())
	b.t["precond"] = append(b.t["precond"], tr.precond.Seconds())
	b.t["allreduce"] = append(b.t["allreduce"], tr.allreduce.Seconds())
	b.t["redundancy_per_iter"] = append(b.t["redundancy_per_iter"], float64(redundancy)/float64(sol.Result.Iterations))
	return sol.X
}
