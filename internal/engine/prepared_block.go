package engine

import (
	"context"
)

// ValidateBatch fail-fast checks every column of bs against the prepared
// system — length and finiteness — returning a typed *InvalidRHSError naming
// the first offending column. Callers batching through either the blocked or
// the looped path use it to reject a malformed batch before any solve runs.
func (ps *Prepared) ValidateBatch(bs [][]float64) error {
	return validateBatch(bs, ps.n)
}

// CanSolveBlock reports whether a batch with these per-solve options can run
// through the blocked multi-RHS path on this session. The blocked path is
// the one resilient PCG driver at k columns, so every strategy but twin runs
// it, with or without an armed SDC check. Four cases fall back to looped
// per-column solves: the twin strategy (its shadow replica covers a single
// column), corruption events in the schedule (a corruption site names no
// column), the split-preconditioner SPCG method (its own single-column
// driver) and Resume (a replacement rank joins one solve's episode).
func (ps *Prepared) CanSolveBlock(opts SolveOpts) bool {
	if ps.cfg.Strategy == StrategyTwin || opts.Schedule.HasCorruption() || opts.Resume != nil {
		return false
	}
	m, err := ps.method(opts)
	return err == nil && m != MethodSPCG
}

// SolveBlock solves the k systems A x[c] = bs[c] in lockstep against the
// prepared state: one k-column SpMM, one k-strided halo frame per neighbor
// and fused length-k allreduces per iteration, with one recovery episode
// (reconstruction, rollback or restart) covering all k columns. Column c of
// the returned solutions is bitwise identical to Solve(ctx, bs[c], opts) on
// every transport, including under a failure schedule.
//
// The returned slices are aligned with bs: colErrs[c] reports a per-column
// breakdown, divergence or detected corruption (the corresponding Solution
// is zero-valued); the error return reports a global failure
// (communication, cancellation, unrecoverable data loss) aborting the whole
// block. Like Solve, it is safe for concurrent use; use CanSolveBlock to
// decide between this path and looped per-column solves.
func (ps *Prepared) SolveBlock(ctx context.Context, bs [][]float64, opts SolveOpts) ([]Solution, []error, error) {
	if len(bs) == 0 {
		return nil, nil, nil
	}
	if err := validateBatch(bs, ps.n); err != nil {
		return nil, nil, err
	}
	return ps.solve(ctx, nil, nil, bs, opts)
}
