package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/distmat"
	"repro/internal/partition"
	"repro/internal/precond"
)

// RecoverBlocks runs the tailored redundant-copy gather protocol for the
// failed ranks: every replacement reconstructs, for each requested retention
// generation, its full block of the corresponding SpMV input vector from the
// copies surviving on other ranks.
//
// All ranks (survivors and replacements) must call it with identical
// arguments (failure knowledge is deterministic). On a replacement, out[k]
// is filled with the reconstructed block for gens[k]; on survivors, out is
// not touched. A DataLossError is returned on every rank when some element
// has no surviving copy.
//
// This is the phase-2 protocol of the ESR reconstruction, factored out so
// the SPCG, BiCGSTAB and stationary-method variants reuse it.
//
// The protocol is width-aware: when the matrix's retention store was
// prepared with SetBlockWidth(w) (blocked multi-RHS solves), every element
// carries w consecutive values and out[k] receives the interleaved
// w-strided block. Width 1 is the single-RHS protocol unchanged.
func RecoverBlocks(e *distmat.Env, a *distmat.Matrix, iter int, failed map[int]bool, failedList []int, gens []int, out [][]float64) error {
	me := e.Pos
	amFailed := failed[me]
	lo, _ := a.P.Range(me)
	w := 1
	if a.Ret != nil {
		w = a.Ret.Width()
	}

	// Sub-phase A: coverage status broadcast (deterministic abort).
	var byHolder map[int][]int
	status := 0
	if amFailed {
		if a.Red == nil {
			return fmt.Errorf("core: RecoverBlocks needs a resilience-enabled matrix")
		}
		var uncovered []int
		byHolder, uncovered = commplan.AssignHolders(a.Red.Holders(), lo, failed)
		if len(uncovered) > 0 {
			status = 1
		}
	}
	anyAbort := false
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me {
				continue
			}
			if err := e.C.Send(cluster.CatRecovery, r, tagRecStatus, nil, []int{status}); err != nil {
				return err
			}
		}
	}
	for _, f := range failedList {
		if f == me {
			if status == 1 {
				anyAbort = true
			}
			continue
		}
		msg, err := e.C.Recv(f, tagRecStatus)
		if err != nil {
			return err
		}
		if msg.I[0] == 1 {
			anyAbort = true
		}
	}
	if anyAbort {
		return &DataLossError{Iteration: iter, FailedRanks: failedList}
	}

	// Sub-phase B: requests and responses, all generations in one payload.
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me || failed[r] {
				continue
			}
			if err := e.C.Send(cluster.CatRecovery, r, tagRecPReq, nil, byHolder[r]); err != nil {
				return err
			}
		}
	} else {
		for _, f := range failedList {
			req, err := e.C.Recv(f, tagRecPReq)
			if err != nil {
				return err
			}
			payload := []float64{}
			if len(req.I) > 0 {
				for _, g := range gens {
					vals, err := a.Ret.ValuesFor(g, f, req.I)
					if err != nil {
						return fmt.Errorf("core: recovery gather (gen %d from %d): %w", g, f, err)
					}
					payload = append(payload, vals...)
				}
			}
			if err := e.C.SendFloats(cluster.CatRecovery, f, tagRecPResp, payload); err != nil {
				return err
			}
		}
	}
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me || failed[r] {
				continue
			}
			vals, err := e.C.RecvFloats(r, tagRecPResp)
			if err != nil {
				return err
			}
			idx := byHolder[r]
			if len(vals) != len(idx)*len(gens)*w {
				return fmt.Errorf("core: recovery response from %d has %d values, want %d",
					r, len(vals), len(idx)*len(gens)*w)
			}
			for k := range gens {
				part := vals[k*len(idx)*w : (k+1)*len(idx)*w]
				for t, g := range idx {
					copy(out[k][(g-lo)*w:(g-lo)*w+w], part[t*w:t*w+w])
				}
			}
		}
	}
	return nil
}

// GatherGhost collects, on every replacement, the entries of k distributed
// vectors owned by survivors at the ghost columns of the given matrix's
// failed rows (the halo needed by the reconstruction products
// A_{If, I\If} x). Survivors send ONE k-strided frame per replacement (k
// consecutive values per ghost element; at k = 1 the single-vector frame),
// replacements receive; the result holds one map global index -> value per
// column on replacements (nil on survivors). tag selects the message tag
// (distinct per use within one recovery).
func GatherGhost(e *distmat.Env, mat *distmat.Matrix, locals [][]float64, failed map[int]bool, failedList []int, tag int) ([]map[int]float64, error) {
	me := e.Pos
	k := len(locals)
	if !failed[me] {
		lo, _ := mat.P.Range(me)
		for _, f := range failedList {
			idx := mat.Plan.SendTo[f]
			if len(idx) == 0 {
				continue
			}
			vals := make([]float64, len(idx)*k)
			for t, g := range idx {
				for c := range locals {
					vals[t*k+c] = locals[c][g-lo]
				}
			}
			if err := e.C.SendFloats(cluster.CatRecovery, f, tag, vals); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	ghosts := make([]map[int]float64, k)
	for c := range ghosts {
		ghosts[c] = map[int]float64{}
	}
	for r := 0; r < e.Size(); r++ {
		if r == me || failed[r] {
			continue
		}
		idx := mat.Plan.RecvFrom[r]
		if len(idx) == 0 {
			continue
		}
		vals, err := e.C.RecvFloats(r, tag)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(idx)*k {
			return nil, fmt.Errorf("core: ghost gather from %d: %d values, want %d", r, len(vals), len(idx)*k)
		}
		for t, g := range idx {
			for c := range ghosts {
				ghosts[c][g] = vals[t*k+c]
			}
		}
	}
	return ghosts, nil
}

// SubsystemSolve solves mat_{If,If} sol[c] = rhs[c] for every column,
// distributed over the subgroup of failed ranks (each owning its block),
// with block-local ILU(0) preconditioned CG — the paper's recovery
// subsystem solver. The subsystem environment, matrix and preconditioner
// are built once and the k systems run through the blocked ResilientPCG,
// so each column's subsystem trajectory is bitwise that of a solve of the
// column alone. Only failed ranks participate; survivors must not call it.
// Returns the largest per-column iteration count.
func SubsystemSolve(e *distmat.Env, mat *distmat.Matrix, failedList []int, rhs, sol [][]float64, ctx int, tol float64, maxIter int) (int, error) {
	sizes := make([]int, len(failedList))
	var ifIdx []int
	myPos := -1
	for t, f := range failedList {
		flo, fhi := mat.P.Range(f)
		sizes[t] = fhi - flo
		for g := flo; g < fhi; g++ {
			ifIdx = append(ifIdx, g)
		}
		if f == e.Pos {
			myPos = t
		}
	}
	if myPos < 0 {
		return 0, fmt.Errorf("core: SubsystemSolve called by a non-failed rank")
	}
	subP := partition.FromSizes(sizes)
	localRows := make([]int, mat.Rows.Rows)
	for i := range localRows {
		localRows[i] = i
	}
	subRows := mat.Rows.Submatrix(localRows, ifIdx)

	subEnv, err := distmat.GroupEnv(e.C, failedList, ctx)
	if err != nil {
		return 0, err
	}
	subA, err := distmat.NewMatrix(subEnv, subRows, subP, 0, ctx)
	if err != nil {
		return 0, err
	}
	var sub Precond
	if ilu, err := precond.NewBlockJacobiILU(subA.OwnBlock()); err == nil {
		sub = LocalPrecond{P: ilu}
	} else {
		sub = IdentityPrecond()
	}
	if maxIter <= 0 {
		maxIter = 20 * subP.N()
		if maxIter < 500 {
			maxIter = 500
		}
	}
	xs := newVectors(subA, subEnv, len(rhs))
	bs := make([]distmat.Vector, len(rhs))
	for c := range rhs {
		bs[c] = distmat.Vector{P: subP, Pos: myPos, Local: rhs[c]}
	}
	res, colErrs, err := ResilientPCG(subEnv, subA, xs, bs, sub, Options{Tol: tol, MaxIter: maxIter}, nil, NewESRStrategy())
	if err != nil {
		return 0, err
	}
	iters := 0
	for c := range res {
		if colErrs[c] != nil {
			return 0, colErrs[c]
		}
		if !res[c].Converged && res[c].RelResidual() > 1e-6 {
			return res[c].Iterations, fmt.Errorf("core: reconstruction subsystem stagnated (relres %.2e)", res[c].RelResidual())
		}
		copy(sol[c], xs[c].Local)
		iters = max(iters, res[c].Iterations)
	}
	return iters, nil
}
