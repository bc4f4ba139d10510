package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/precond"
	"repro/internal/vec"
)

// SPCG runs the resilient split-preconditioner conjugate gradient method
// (Saad Alg. 9.2) with a block-local split preconditioner M_i = L_i L_i^T
// (e.g. IC(0), precond.NewIC0Split). This is the paper's SPCG variant
// ([23, Alg. 5]): the solver iterates on the transformed residual
// rhat = L^{-1} r and the ESR reconstruction recovers
//
//	rhat_If = L^T (p(j) - beta(j-1) p(j-1))   (block-local),
//	r_If    = L rhat_If                        (block-local),
//
// followed by the same A_{If,If} x_If = w subsystem solve as PCG.
//
// The stopping criterion is on the true residual norm ||r|| = ||L rhat||,
// recomputed block-locally each iteration, so results are comparable with
// PCG's.
func SPCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m precond.Split, opts Options, sched *faults.Schedule) (Result, error) {
	if m == nil {
		return Result{}, fmt.Errorf("core: SPCG needs a split preconditioner")
	}
	opts = opts.withDefaults(a.P.N())
	if err := sched.Validate(e.Size()); err != nil {
		return Result{}, err
	}
	if !sched.Empty() && a.Ret == nil {
		return Result{}, fmt.Errorf("core: SPCG needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	start := time.Now()
	bs := len(x.Local)

	st := &spcgState{
		e: e, a: a, m: m, b: b, opts: opts, sched: sched,
		x:    x,
		rhat: distmat.NewVector(a.P, e.Pos),
		p:    distmat.NewVector(a.P, e.Pos),
		u:    distmat.NewVector(a.P, e.Pos),
	}
	scratch := make([]float64, bs)

	// r(0) = b - A x(0); rhat(0) = L^{-1} r(0); p(0) = L^{-T} rhat(0).
	r0v := distmat.NewVector(a.P, e.Pos)
	if err := a.Residual(e, r0v, b, x, -1); err != nil {
		return Result{}, err
	}
	m.SolveL(st.rhat.Local, r0v.Local)
	m.SolveLT(st.p.Local, st.rhat.Local)
	norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{
		vec.ParNrm2SqN(r0v.Local, opts.Threads), vec.ParNrm2SqN(st.rhat.Local, opts.Threads)})
	if err != nil {
		return Result{}, err
	}
	st.r0 = math.Sqrt(norms[0])
	st.rho = norms[1]
	e.Grp.Recycle(norms)
	st.beta = 0
	res := Result{InitialResidual: st.r0, FinalResidual: st.r0}
	if st.r0 == 0 {
		res.Converged = true
		res.SolveTime = time.Since(start)
		return res, nil
	}

	for j := 0; j < opts.MaxIter; j++ {
		if err := opts.poll(); err != nil {
			return res, err
		}
		if err := a.MatVec(e, st.u, st.p, j); err != nil {
			return res, err
		}
		if victims := sched.AtIteration(j); len(victims) > 0 {
			rec, err := st.recover(j, victims)
			if err != nil {
				return res, err
			}
			res.Reconstructions = append(res.Reconstructions, rec)
			res.ReconstructTime += rec.Duration
			recCopy := rec
			opts.notify(ProgressEvent{
				Iteration: j, Residual: res.FinalResidual,
				RelResidual: relTo(res.FinalResidual, st.r0), Reconstruction: &recCopy,
			})
			if err := a.MatVec(e, st.u, st.p, j); err != nil {
				return res, err
			}
			rho, err := e.Grp.AllreduceScalar(cluster.OpSum, vec.ParNrm2SqN(st.rhat.Local, opts.Threads))
			if err != nil {
				return res, err
			}
			st.rho = rho
		}
		pu, err := distmat.DotN(e, st.p, st.u, opts.Threads)
		if err != nil {
			return res, err
		}
		// Negated comparison so NaN also trips the breakdown (see PCG).
		if !(pu > 0) {
			return res, fmt.Errorf("core: SPCG breakdown, p'Ap = %g at iteration %d", pu, j)
		}
		alpha := st.rho / pu
		vec.Axpy(alpha, st.p.Local, x.Local)
		m.SolveL(scratch, st.u.Local) // L^{-1} A p, block-local
		vec.Axpy(-alpha, scratch, st.rhat.Local)
		// True residual norm: r = L rhat block-locally.
		m.MulL(scratch, st.rhat.Local)
		norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{
			vec.ParNrm2SqN(scratch, opts.Threads), vec.ParNrm2SqN(st.rhat.Local, opts.Threads)})
		if err != nil {
			return res, err
		}
		rn := math.Sqrt(norms[0])
		rhoNew := norms[1]
		e.Grp.Recycle(norms)
		res.Iterations = j + 1
		res.FinalResidual = rn
		if math.IsNaN(rn) || math.IsInf(rn, 0) {
			return res, fmt.Errorf("core: SPCG diverged, ||r|| = %g at iteration %d", rn, j)
		}
		opts.notify(ProgressEvent{Iteration: j + 1, Residual: rn, RelResidual: relTo(rn, st.r0)})
		if rn <= opts.Tol*st.r0 {
			res.Converged = true
			break
		}
		st.beta = rhoNew / st.rho
		st.rho = rhoNew
		m.SolveLT(scratch, st.rhat.Local)
		vec.Axpby(1, scratch, st.beta, st.p.Local) // p = L^{-T} rhat + beta p
	}

	res.WorkIterations = res.Iterations
	out := []Result{res}
	if err := finishResults(e, a, []distmat.Vector{x}, []distmat.Vector{b}, out, opts.Threads); err != nil {
		return res, err
	}
	res = out[0]
	res.SolveTime = time.Since(start)
	return res, nil
}

// spcgState carries the SPCG solver state across the reconstruction.
type spcgState struct {
	e     *distmat.Env
	a     *distmat.Matrix
	m     precond.Split
	b     distmat.Vector
	opts  Options
	sched *faults.Schedule

	x, rhat, p, u distmat.Vector
	r0, rho, beta float64
}

func (st *spcgState) wipe() {
	nan := math.NaN()
	vec.Fill(st.x.Local, nan)
	vec.Fill(st.rhat.Local, nan)
	vec.Fill(st.p.Local, nan)
	vec.Fill(st.u.Local, nan)
	st.r0, st.rho, st.beta = nan, nan, nan
	if st.a.Ret != nil {
		st.a.Ret.Wipe()
	}
}

// recover reconstructs the SPCG state after the failure of victims at
// iteration j, running the PCG episode's phase grid (and overlapping-failure
// restarts) with the split variant's phases.
func (st *spcgState) recover(j int, victims []int) (Reconstruction, error) {
	return runEpisode(st.e, st.sched, j, st.wipe, victims, func(ef *EpisodeFailures) func(int) (int, error) {
		failed, failedList := ef.Failed, ef.Ranks()
		return func(phase int) (int, error) {
			switch phase {
			case phaseScalars:
				vals := []float64{st.beta, st.r0}
				err := shareScalars(st.e, failed, failedList, vals)
				st.beta, st.r0 = vals[0], vals[1]
				return 0, err
			case phasePGather:
				gens := []int{j}
				pPrev := make([]float64, len(st.p.Local))
				out := [][]float64{st.p.Local}
				if j > 0 {
					gens = append(gens, j-1)
					out = append(out, pPrev)
				}
				if err := RecoverBlocks(st.e, st.a, j, failed, failedList, gens, out); err != nil {
					return 0, err
				}
				if ef.AmFailed() {
					// zhat = p(j) - beta p(j-1) = L^{-T} rhat(j); block-local
					// transforms recover rhat and r.
					zhat := make([]float64, len(st.p.Local))
					if j == 0 {
						copy(zhat, st.p.Local)
					} else {
						vec.XpayInto(zhat, st.p.Local, -st.beta, pPrev)
					}
					st.m.MulLT(st.rhat.Local, zhat)
				}
			case phaseXSystem:
				return SolveCoupled(st.e, st.a, failed, failedList, [][]float64{st.x.Local}, func(int) []float64 {
					r := make([]float64, len(st.rhat.Local))
					st.m.MulL(r, st.rhat.Local) // r_If = L rhat_If
					w := append([]float64(nil), st.b.Local...)
					vec.Axpy(-1, r, w)
					return w
				}, ctxSubA, tagRecXHalo, st.opts)
			}
			// phaseZR: rhat was already rebuilt in phasePGather (purely
			// local); nothing distributed happens here for the split variant.
			return 0, nil
		}
	})
}
