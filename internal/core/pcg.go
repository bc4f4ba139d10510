package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
)

// ResilientPCG solves the k systems A x[c] = b[c] with the preconditioned
// conjugate gradient method (Alg. 1 of the paper) protected by the given
// recovery strategy: the strategy's steady-state overhead work runs at the
// top of every iteration and its recovery episode at the paper's post-SpMV
// failure poll point. The reference method is the ESR strategy with an
// empty schedule; ESR, the checkpoint/restart baseline (internal/checkpoint)
// and the cold-restart lower bound all run this one loop, so every strategy
// is compared on one code path. m may be nil for plain CG; a nil strat
// selects ESR.
//
// The k recurrences run in lockstep off one SpMM (u[c] = A p[c], a single
// k-strided halo frame per neighbour), one fused preconditioner application
// and one fused length-k and one length-2k allreduce per iteration. Slot c
// of a fused allreduce is bitwise the scalar allreduce of a solo solve, the
// SpMM column is bitwise the SpMV, and at k = 1 every call is the solo call,
// so column c's trajectory, solution and Result are bitwise those of a
// solve of column c alone, on every transport and under any schedule. A
// column that converges is snapshotted and frozen (see SolverState); a
// column that breaks down or diverges freezes with its error in the second
// return. The third return is a global error (communication failure,
// cancellation, unrecoverable data loss) that aborts every column.
//
// Failure semantics follow the paper's experimental methodology (Sec. 6):
// victims are wiped at deterministic poll points and the same rank slot then
// executes the strategy's recovery protocol. Overlapping failures fire at
// recovery-phase boundaries and restart the episode with the enlarged failed
// set (Sec. 4.1; rollback strategies redo the rollback — a cascading
// rollback). An episode belongs to the columns still running at its
// iteration: a column that already converged would have ended before it.
//
// Every rank calls ResilientPCG with its local blocks; the returned Results
// are identical on all ranks (reductions use a deterministic tree order).
func ResilientPCG(e *distmat.Env, a *distmat.Matrix, x, b []distmat.Vector, m Precond, opts Options, sched *faults.Schedule, strat Strategy) ([]Result, []error, error) {
	k := len(b)
	if k == 0 || len(x) != k {
		return nil, nil, fmt.Errorf("core: ResilientPCG needs matching non-empty column sets (%d vs %d)", len(x), k)
	}
	if m == nil {
		m = IdentityPrecond()
	}
	if strat == nil {
		strat = NewESRStrategy()
	}
	opts = opts.withDefaults(a.P.N())
	res := make([]Result, k)
	errs := make([]error, k)
	if err := sched.Validate(e.Size()); err != nil {
		return res, errs, err
	}
	if k > 1 && sched.HasCorruption() {
		return res, errs, fmt.Errorf("core: corruption events name no column; they need a single-column solve")
	}
	start := time.Now()
	// The retention store keeps k values per halo element.
	a.SetBlockWidth(k)

	st := &SolverState{
		E: e, A: a, M: m, Opts: opts, Sched: sched,
		B: b, X: x, R: newVectors(a, e, k), Z: newVectors(a, e, k),
		P: newVectors(a, e, k), U: newVectors(a, e, k),
		R0: make([]float64, k), RZ: make([]float64, k), Beta: make([]float64, k),
		done: make([]bool, k), xFinal: make([][]float64, k),
	}
	// Init before any collective (and before the r0 == 0 check): a
	// misconfiguration such as an ESR schedule without redundancy must
	// surface even when the initial guess already solves the system.
	if err := strat.Init(st); err != nil {
		return res, errs, err
	}

	if opts.Resume != nil {
		// A replacement rank joining an episode in progress: its peers are
		// blocked at iteration Resume.Iteration's recovery collectives, so
		// running iterations 0..Iteration-1 here would deadlock (and repeat
		// sends the survivors already consumed). Start from the same wiped
		// state an in-process victim has — recovery rebuilds everything,
		// including the replicated scalars this rank's Result needs.
		if strat.Name() != StrategyESR {
			return res, errs, fmt.Errorf("core: Resume requires the in-place %s strategy, not %s", StrategyESR, strat.Name())
		}
		if opts.Resume.Iteration < 0 || opts.Resume.Iteration >= opts.MaxIter {
			return res, errs, fmt.Errorf("core: Resume iteration %d out of range", opts.Resume.Iteration)
		}
		st.Wipe()
	} else {
		// r(0) = b - A x(0); z(0) = M^{-1} r(0); p(0) = z(0).
		if err := initIteration0(st); err != nil {
			return res, errs, err
		}
		for c := range res {
			res[c] = Result{InitialResidual: st.R0[c], FinalResidual: st.R0[c]}
			if st.R0[c] == 0 {
				// The initial guess already solves column c.
				res[c].Converged = true
				st.land(c)
			}
		}
	}

	// poller is non-nil for strategies that detect and repair silent data
	// corruption themselves (twin); others rely on the detection-only
	// SDCCheck drift check below.
	poller, _ := strat.(sdcPoller)
	var sdcScratch []distmat.Vector
	if opts.SDCCheck > 0 {
		sdcScratch = newVectors(a, e, k)
	}
	// sdcPending tracks injected-but-undetected corruption iterations for
	// the detection-latency accounting; sdcFired plays the role of `fired`
	// for corruption events on rollback replays. Corruption runs at k = 1
	// only, so its counters live on column 0.
	var sdcPending []int
	sdcFired := map[int]bool{}
	traceCorruption := func(j int, ranks []int) {
		if opts.Tracer != nil {
			opts.Tracer.TraceRecovery(RecoveryTrace{Iteration: j, Strategy: strat.Name(), FailedRanks: ranks, Corruption: true})
		}
	}

	// clock times the iteration phases for the tracer; nil (the common case)
	// reduces every hook below to a pointer test, so the untraced loop never
	// reads the wall clock mid-iteration.
	var clock *phaseClock
	if opts.Tracer != nil {
		clock = &phaseClock{}
	}
	fused := make([]float64, 2*k)
	zAct := make([]distmat.Vector, 0, k)
	rAct := make([]distmat.Vector, 0, k)

	// fired tracks handled failure iterations, so rollback strategies that
	// redo iterations do not re-trigger the same event on the replay.
	fired := map[int]bool{}
	j := 0
	// resuming carries the Resume episode into the first loop pass: the
	// rank goes straight to the recovery collectives its peers are blocked
	// in, skipping the per-iteration work that already happened elsewhere.
	resuming := opts.Resume != nil
	if resuming {
		j = opts.Resume.Iteration
		fired[j] = true
	}
	for j < opts.MaxIter && !st.allDone() {
		var victims []int
		// redoJ marks that iteration j's state was rebuilt (in-place
		// fail-stop reconstruction or a non-bitwise corruption repair): the
		// SpMM of j must be redone and r'z recomputed before continuing.
		redoJ := false
		if resuming {
			resuming = false
			victims = opts.Resume.Victims
		} else {
			if err := opts.poll(); err != nil {
				return res, errs, err
			}
			// Steady-state protection work (checkpoint saves; nothing for
			// ESR — its redundancy rides the SpMM below — or restart).
			if err := strat.Overhead(st, j); err != nil {
				return res, errs, err
			}
			for c := range res {
				if !st.done[c] {
					res[c].WorkIterations++
				}
			}
			// u = A p(j): the SpMM that distributes the redundant copies of
			// p(j) (when the matrix is resilience-enabled) and retains
			// generation j.
			clock.start()
			if err := a.MatMat(e, st.U, st.P, j); err != nil {
				return res, errs, err
			}
			clock.stop(clockSpMV)
			// Corruption poll point: scheduled bit flips strike here — the
			// same point as the fail-stop events below, after u = A p(j) was
			// computed from the still-clean p. All ranks count every
			// injection (the Result stays replicated); only the victim
			// applies the flip.
			if sites := sched.CorruptionsAt(j); len(sites) > 0 && !sdcFired[j] {
				sdcFired[j] = true
				res[0].SDCInjected += len(sites)
				for _, s := range sites {
					sdcPending = append(sdcPending, j)
					if s.Rank == e.Pos {
						applyCorruption(st, s)
					}
				}
			}
			// Twin checksum exchange + vote + forward recovery. This runs
			// before the fail-stop recovery below so the u-test still sees
			// the pre-injection u = A p(j).
			if poller != nil {
				out, perr := poller.PollSDC(st, j)
				if perr != nil {
					return res, errs, perr
				}
				redoJ = out.Redo
				if out.Detected > 0 {
					res[0].SDCDetected += out.Detected
					res[0].SDCCorrected += out.Corrected
					res[0].SDCLatency += latency(sdcPending, j)
					sdcPending = sdcPending[:0]
					traceCorruption(j, out.Ranks)
				}
			}
			// Periodic true-residual drift check (detection-only for
			// strategies without a repair path).
			if opts.SDCCheck > 0 && j > 0 && j%opts.SDCCheck == 0 {
				rtrue, rrec, err := sdcDrift(st, sdcScratch)
				if err != nil {
					return res, errs, err
				}
				for c := range res {
					if st.done[c] || !drifted(rtrue[c], rrec[c], st.R0[c]) {
						continue
					}
					res[c].SDCDetected++
					res[c].SDCLatency += latency(sdcPending, j)
					sdcPending = sdcPending[:0]
					if poller == nil {
						errs[c] = &SDCDetectedError{Iteration: j, TrueResidual: rtrue[c], RecurrenceResidual: rrec[c]}
						st.done[c] = true
						continue
					}
					if err := poller.RepairDrift(st, j); err != nil {
						return res, errs, err
					}
					res[c].SDCCorrected++
					redoJ = true
					traceCorruption(j, nil)
				}
			}
			// Poll point: the paper's failures strike here, after the copies
			// of p(j) exist on phi other ranks.
			if v := sched.AtIteration(j); len(v) > 0 && !fired[j] && !st.allDone() {
				fired[j] = true
				victims = v
				if opts.OnFailure != nil {
					opts.OnFailure(j, v)
				}
			}
		}
		if len(victims) > 0 {
			resume, rec, err := strat.Recover(st, j, victims)
			if err != nil {
				return res, errs, err
			}
			for c := range res {
				if st.done[c] {
					continue
				}
				res[c].Reconstructions = append(res[c].Reconstructions, rec)
				res[c].ReconstructTime += rec.Duration
				if res[c].InitialResidual == 0 && opts.Resume != nil {
					// A resumed rank learns ||r0|| only through the
					// recovery's scalar reconstruction; fill the Result in
					// after the fact.
					res[c].InitialResidual, res[c].FinalResidual = st.R0[c], st.R0[c]
				}
			}
			if w := st.worst(res); w >= 0 {
				recCopy := rec
				opts.notify(ProgressEvent{
					Iteration: j, Residual: res[w].FinalResidual,
					RelResidual: relTo(res[w].FinalResidual, st.R0[w]), Reconstruction: &recCopy,
				})
			}
			if opts.Tracer != nil {
				redone := 0
				if resume >= 0 {
					redone = j - resume
				}
				opts.Tracer.TraceRecovery(RecoveryTrace{
					Iteration: j, Strategy: strat.Name(),
					FailedRanks: rec.FailedRanks, Restarts: rec.Restarts,
					RedoneIterations: redone, Duration: rec.Duration,
				})
			}
			if resume >= 0 {
				// Rollback-style recovery: redo the lost iterations. The
				// replayed iterations are traced again — the trace reflects
				// executed work, like Result.WorkIterations.
				clock.reset()
				j = resume
				continue
			}
			// In-place reconstruction: fall through to the shared redo.
			redoJ = true
		}
		if redoJ {
			// Redo the SpMM of iteration j — recomputes u everywhere and
			// re-establishes the redundancy copies on reconstructed or
			// repaired state — and recompute r'z off the rebuilt blocks.
			clock.start()
			if err := a.MatMat(e, st.U, st.P, j); err != nil {
				return res, errs, err
			}
			clock.stop(clockSpMV)
			for c := range res {
				fused[c] = vec.ParDotN(st.R[c].Local, st.Z[c].Local, opts.Threads)
			}
			clock.start()
			rzs, err := e.Grp.Allreduce(cluster.OpSum, fused[:k])
			clock.stop(clockAllreduce)
			if err != nil {
				return res, errs, err
			}
			copy(st.RZ, rzs)
			e.Grp.Recycle(rzs)
		}
		// Fused length-k allreduce of the p'Ap dot products. Frozen
		// columns contribute a deterministic 0 slot.
		for c := range res {
			fused[c] = 0
			if !st.done[c] {
				fused[c] = vec.ParDotN(st.P[c].Local, st.U[c].Local, opts.Threads)
			}
		}
		clock.start()
		pus, err := e.Grp.Allreduce(cluster.OpSum, fused[:k])
		clock.stop(clockAllreduce)
		if err != nil {
			return res, errs, err
		}
		zAct, rAct = zAct[:0], rAct[:0]
		for c := range res {
			if st.done[c] {
				continue
			}
			// Negated comparison so NaN (from an overflowed iterate) also
			// trips the breakdown instead of spinning NaN arithmetic to
			// MaxIter. A breakdown freezes only its column.
			if !(pus[c] > 0) {
				errs[c] = fmt.Errorf("core: %s-PCG breakdown, p'Ap = %g at iteration %d", strat.Name(), pus[c], j)
				st.done[c] = true
				continue
			}
			alpha := st.RZ[c] / pus[c]
			// Fused PCG update pair: x += alpha p and r -= alpha A p in one
			// pass (bit-identical to the two Axpys).
			vec.ParAxpyAxpy(alpha, st.P[c].Local, st.X[c].Local, -alpha, st.U[c].Local, st.R[c].Local, opts.Threads)
			zAct = append(zAct, st.Z[c])
			rAct = append(rAct, st.R[c])
		}
		e.Grp.Recycle(pus)
		if len(zAct) == 0 {
			break
		}
		// One fused application for the still-active columns.
		clock.start()
		if err := applyPrecondBlock(e, m, zAct, rAct); err != nil {
			return res, errs, err
		}
		clock.stop(clockPrecond)
		// One fused length-2k allreduce for the k (||r||^2, r'z) pairs.
		for c := range res {
			fused[2*c], fused[2*c+1] = 0, 0
			if !st.done[c] {
				fused[2*c] = vec.ParNrm2SqN(st.R[c].Local, opts.Threads)
				fused[2*c+1] = vec.ParDotN(st.R[c].Local, st.Z[c].Local, opts.Threads)
			}
		}
		clock.start()
		norms, err := e.Grp.Allreduce(cluster.OpSum, fused)
		clock.stop(clockAllreduce)
		if err != nil {
			return res, errs, err
		}
		for c := range res {
			if st.done[c] {
				continue
			}
			rn := math.Sqrt(norms[2*c])
			res[c].Iterations = j + 1
			res[c].FinalResidual = rn
			if math.IsNaN(rn) || math.IsInf(rn, 0) {
				errs[c] = fmt.Errorf("core: %s-PCG diverged, ||r|| = %g at iteration %d", strat.Name(), rn, j)
				st.done[c] = true
			}
		}
		if w := st.worst(res); w >= 0 {
			rn := res[w].FinalResidual
			opts.notify(ProgressEvent{Iteration: j + 1, Residual: rn, RelResidual: relTo(rn, st.R0[w])})
			clock.emit(opts.Tracer, j+1, rn, relTo(rn, st.R0[w]))
		}
		for c := range res {
			if st.done[c] {
				continue
			}
			if res[c].FinalResidual <= opts.Tol*st.R0[c] {
				res[c].Converged = true
				st.land(c)
				continue
			}
			st.Beta[c] = norms[2*c+1] / st.RZ[c]
			st.RZ[c] = norms[2*c+1]
			vec.Axpby(1, st.Z[c].Local, st.Beta[c], st.P[c].Local)
		}
		e.Grp.Recycle(norms)
		j++
	}

	// Converged columns return their snapshot; columns that exhausted
	// MaxIter keep their last iterate.
	for c, xf := range st.xFinal {
		if xf != nil {
			copy(x[c].Local, xf)
		}
	}
	if err := finishResults(e, a, x, b, res, opts.Threads); err != nil {
		return res, errs, err
	}
	elapsed := time.Since(start)
	for c := range res {
		res[c].SolveTime = elapsed
		// Convergence verification: with SDC checking armed, a solve never
		// reports success while the recurrence residual disagrees with the
		// true residual — corruption that slipped between periodic checks
		// surfaces here instead of as a silently wrong answer.
		if opts.SDCCheck > 0 && res[c].Converged && drifted(res[c].TrueResidual, res[c].FinalResidual, st.R0[c]) {
			res[c].SDCDetected++
			errs[c] = &SDCDetectedError{
				Iteration: res[c].Iterations, TrueResidual: res[c].TrueResidual,
				RecurrenceResidual: res[c].FinalResidual,
			}
		}
	}
	return res, errs, nil
}

// land freezes converged column c with a snapshot of its solution block.
func (st *SolverState) land(c int) {
	st.done[c] = true
	st.xFinal[c] = vec.Clone(st.X[c].Local)
}

// allDone reports whether every column converged or failed.
func (st *SolverState) allDone() bool {
	for _, d := range st.done {
		if !d {
			return false
		}
	}
	return true
}

// worst returns the active column with the largest relative residual, or
// -1 when no column is active: the column progress events and traces
// report.
func (st *SolverState) worst(res []Result) int {
	w := -1
	for c, d := range st.done {
		if !d && (w < 0 || relTo(res[c].FinalResidual, st.R0[c]) > relTo(res[w].FinalResidual, st.R0[w])) {
			w = c
		}
	}
	return w
}

// latency sums the detection latency, in iterations at detection point j,
// of the pending injections.
func latency(pending []int, j int) int {
	sum := 0
	for _, inj := range pending {
		sum += j - inj
	}
	return sum
}

// newVectors allocates k distributed vectors on a's partition.
func newVectors(a *distmat.Matrix, e *distmat.Env, k int) []distmat.Vector {
	vs := make([]distmat.Vector, k)
	for c := range vs {
		vs[c] = distmat.NewVector(a.P, e.Pos)
	}
	return vs
}

// applyPrecondBlock applies m to every column pair, through the fused
// k-column path (BlockPrecond) when the preconditioner has one — a single
// structure traversal (or halo exchange) instead of k — and column by
// column otherwise. Both paths are bitwise identical per column.
func applyPrecondBlock(e *distmat.Env, m Precond, z, r []distmat.Vector) error {
	if bp, ok := m.(BlockPrecond); ok && len(z) > 1 {
		return bp.ApplyBlock(e, z, r)
	}
	for c := range z {
		if err := m.Apply(e, z[c], r[c]); err != nil {
			return err
		}
	}
	return nil
}

// initIteration0 (re)builds the iteration-0 solver state of every column
// from X and B: r(0) = b - A x(0) through one SpMM, z(0) = M^{-1} r(0)
// through one fused application, p(0) = z(0), and the replicated scalars
// through one fused length-2k allreduce. Shared by the driver's setup and
// the cold-restart recovery, so a restarted solve replays a fresh solve
// bit-identically.
func initIteration0(st *SolverState) error {
	if err := st.A.ResidualBlock(st.E, st.R, st.B, st.X, -1); err != nil {
		return err
	}
	if err := applyPrecondBlock(st.E, st.M, st.Z, st.R); err != nil {
		return err
	}
	fused := make([]float64, 2*len(st.X))
	for c := range st.X {
		vec.Copy(st.P[c].Local, st.Z[c].Local)
		fused[2*c] = vec.ParNrm2SqN(st.R[c].Local, st.Opts.Threads)
		fused[2*c+1] = vec.ParDotN(st.R[c].Local, st.Z[c].Local, st.Opts.Threads)
	}
	norms, err := st.E.Grp.Allreduce(cluster.OpSum, fused)
	if err != nil {
		return err
	}
	for c := range st.X {
		st.R0[c] = math.Sqrt(norms[2*c])
		st.RZ[c] = norms[2*c+1]
		st.Beta[c] = 0
	}
	st.E.Grp.Recycle(norms)
	return nil
}

// finishResults recomputes every column's true residual ||b - A x|| with
// one SpMM and one fused length-k allreduce, and the relative residual
// difference metric of Eqn. 7.
func finishResults(e *distmat.Env, a *distmat.Matrix, x, b []distmat.Vector, res []Result, threads int) error {
	t := newVectors(a, e, len(x))
	if err := a.ResidualBlock(e, t, b, x, -1); err != nil {
		return err
	}
	fused := make([]float64, len(x))
	for c := range t {
		fused[c] = vec.ParNrm2SqN(t[c].Local, threads)
	}
	norms, err := e.Grp.Allreduce(cluster.OpSum, fused)
	if err != nil {
		return err
	}
	for c := range res {
		// Tiny negative sums can appear from reductions of rounding.
		tn := math.Sqrt(math.Max(norms[c], 0))
		res[c].TrueResidual = tn
		if tn > 0 {
			res[c].Delta = (res[c].FinalResidual - tn) / tn
		}
	}
	e.Grp.Recycle(norms)
	return nil
}
