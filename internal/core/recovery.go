package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// Recovery phases. Overlapping failures fire at phase boundaries and
// restart the episode with the enlarged failed set (paper Sec. 4.1: "the
// reconstruction process must be restarted after each node failure").
const (
	phaseScalars  = 1 // replicated scalars reach the replacements
	phasePGather  = 2 // redundant copies of p(j), p(j-1) are gathered
	phaseZR       = 3 // z_If and r_If are reconstructed (Alg. 2 lines 4-6)
	phaseXSystem  = 4 // w is formed and A_{If,If} x_If = w solved (lines 7-8)
	phaseFinalize = 5 // global barrier; solver resumes
	numPhases     = 5
)

// Message tags of the recovery protocol (user tag space).
const (
	tagRecStatus = 3<<20 + 10
	tagRecScalar = 3<<20 + 11
	tagRecPReq   = 3<<20 + 12
	tagRecPResp  = 3<<20 + 13
	tagRecRHalo  = 3<<20 + 14
	tagRecXHalo  = 3<<20 + 15
)

// Context ids for the subsystem matrices (distinct from the main matrix).
const (
	ctxSubA = 7
	ctxSubP = 8
)

// DataLossError reports that the redundancy protocol cannot cover the failed
// set: some elements have no surviving copy. This is the failure mode of
// Chen's single-failure strategy under adjacent multi-failures (Sec. 3).
type DataLossError struct {
	// Iteration is the solver iteration of the failed episode.
	Iteration int
	// FailedRanks is the failed set that exceeded the protocol's coverage.
	FailedRanks []int
}

// Error implements the error interface.
func (e *DataLossError) Error() string {
	return fmt.Sprintf("core: unrecoverable data loss at iteration %d: failed ranks %v exceed the stored redundancy",
		e.Iteration, e.FailedRanks)
}

// Is claims the data_loss error class, so API boundaries classify the
// failure without matching the concrete type.
func (e *DataLossError) Is(target error) bool { return target == xerr.DataLoss }

// EpisodeFailures tracks the cumulative failed set of one recovery episode
// and applies the paper's Sec. 4.1 overlapping-failure rule uniformly for
// every recovery strategy: at each recovery-phase boundary, scheduled
// victims that are not yet in the set are wiped (via the strategy's wipe
// callback, on the local rank only) and enlarge it, forcing the episode to
// restart. Sharing this bookkeeping is what keeps one faults.Schedule
// meaning the same thing under ESR reconstruction, checkpoint rollback and
// cold restart.
type EpisodeFailures struct {
	sched *faults.Schedule
	iter  int
	pos   int
	wipe  func()
	// Failed is the cumulative failed set (shared with episode internals).
	Failed map[int]bool
}

// NewEpisodeFailures starts an episode's failure tracking for the initial
// victims at iteration iter. pos is the local rank and wipe destroys its
// dynamic state (called when pos itself joins the failed set).
func NewEpisodeFailures(sched *faults.Schedule, iter, pos int, wipe func(), victims []int) *EpisodeFailures {
	ef := &EpisodeFailures{sched: sched, iter: iter, pos: pos, wipe: wipe, Failed: map[int]bool{}}
	ef.add(victims)
	return ef
}

func (ef *EpisodeFailures) add(ranks []int) {
	for _, f := range ranks {
		if !ef.Failed[f] {
			ef.Failed[f] = true
			if f == ef.pos {
				ef.wipe()
			}
		}
	}
}

// AtPhase applies the overlapping failures scheduled right before the given
// recovery phase. It reports whether fresh victims enlarged the set — the
// signal that the episode must restart with the union set (re-running
// completed phases is deterministic: retention and checkpoint reads are
// non-destructive).
func (ef *EpisodeFailures) AtPhase(phase int) bool {
	more := ef.sched.AtRecoveryPhase(ef.iter, phase)
	if len(more) == 0 {
		return false
	}
	fresh := false
	for _, f := range more {
		if !ef.Failed[f] {
			fresh = true
		}
	}
	if fresh {
		ef.add(more)
	}
	return fresh
}

// Ranks returns the sorted failed set.
func (ef *EpisodeFailures) Ranks() []int { return sortedKeys(ef.Failed) }

// AmFailed reports whether the local rank is in the failed set.
func (ef *EpisodeFailures) AmFailed() bool { return ef.Failed[ef.pos] }

// runEpisode drives one recovery episode for the failure of victims at
// iteration j over the recovery-phase grid. attempt(ef) returns the phase
// runner of one attempt over the failed set ef: it runs phases
// phaseScalars..phaseXSystem in order and returns the subsystem iterations
// each spent. Overlapping failures strike at phase boundaries and restart
// the episode with the union set (paper Sec. 4.1: "the reconstruction
// process must be restarted after each node failure"), re-running the
// completed phases deterministically. The final phase synchronises all
// ranks and replicates the subsystem iteration count (only replacements
// solve subsystems). PCG and SPCG share it.
func runEpisode(e *distmat.Env, sched *faults.Schedule, j int, wipe func(), victims []int, attempt func(ef *EpisodeFailures) func(phase int) (int, error)) (Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(sched, j, e.Pos, wipe, victims)

restart:
	rec.FailedRanks = ef.Ranks()
	run := attempt(ef)
	subIters := 0
	for phase := 1; phase <= numPhases; phase++ {
		if ef.AtPhase(phase) {
			rec.Restarts++
			goto restart
		}
		if phase < phaseFinalize {
			iters, err := run(phase)
			if err != nil {
				return rec, err
			}
			subIters += iters
		}
	}
	iters, err := e.Grp.AllreduceScalar(cluster.OpMax, float64(subIters))
	if err != nil {
		return rec, err
	}
	rec.SubIterations = int(iters)
	rec.Duration = time.Since(startT)
	return rec, nil
}

// recoverEpisode executes one reconstruction episode for the failure of
// `victims` detected at iteration j. It returns when every rank (survivors
// and replacements) holds a consistent solver state for iteration j. One
// episode rebuilds every active column: the scalars travel in one message
// per replacement, the redundant copies in one width-k gather, and x_If (and
// r_If for an explicit P) come from one k-column subsystem solve.
func (st *SolverState) recoverEpisode(j int, victims []int) (Reconstruction, error) {
	cols := st.active()
	return runEpisode(st.E, st.Sched, j, st.Wipe, victims, func(ef *EpisodeFailures) func(int) (int, error) {
		ep := &episode{st: st, iter: j, cols: cols, failed: ef.Failed, failedList: ef.Ranks(), amFailed: ef.AmFailed()}
		return ep.run
	})
}

// episode is the per-attempt state of a reconstruction.
type episode struct {
	st         *SolverState
	iter       int
	cols       []int // the active columns the episode rebuilds
	failed     map[int]bool
	failedList []int
	amFailed   bool

	pPrev [][]float64 // p(j-1) per column on the replacement's block
}

// run executes one phase of the attempt.
func (ep *episode) run(phase int) (int, error) {
	switch phase {
	case phaseScalars:
		return 0, ep.runScalars()
	case phasePGather:
		return 0, ep.runPGather()
	case phaseZR:
		return ep.runZR()
	default:
		return ep.runXSystem()
	}
}

// runScalars transfers the replicated scalars beta(j-1) and ||r0|| of every
// column to every replacement (see shareScalars).
func (ep *episode) runScalars() error {
	st := ep.st
	k := len(st.Beta)
	vals := append(append([]float64(nil), st.Beta...), st.R0...)
	if err := shareScalars(st.E, ep.failed, ep.failedList, vals); err != nil {
		return err
	}
	copy(st.Beta, vals[:k])
	copy(st.R0, vals[k:])
	return nil
}

// runPGather reconstructs p(j)_If and p(j-1)_If on the replacements from
// the redundant copies, using the tailored recovery context (README.md,
// "Stand-ins for the paper's setup"): each replacement derives, from the
// static plan, which surviving rank holds each element and requests exactly
// one copy per element. The k-strided copies of a width-k solve are
// deinterleaved back into the per-column vectors.
func (ep *episode) runPGather() error {
	st := ep.st
	k := len(st.P)
	n := len(st.P[0].Local)
	gens := []int{ep.iter}
	out := [][]float64{make([]float64, n*k)}
	if ep.iter > 0 {
		gens = append(gens, ep.iter-1)
		out = append(out, make([]float64, n*k))
	}
	if err := RecoverBlocks(st.E, st.A, ep.iter, ep.failed, ep.failedList, gens, out); err != nil {
		return err
	}
	if !ep.amFailed {
		return nil
	}
	ep.pPrev = make([][]float64, k)
	for _, c := range ep.cols {
		for i := range st.P[c].Local {
			st.P[c].Local[i] = out[0][i*k+c]
		}
		if ep.iter > 0 {
			ep.pPrev[c] = make([]float64, n)
			for i := range ep.pPrev[c] {
				ep.pPrev[c][i] = out[1][i*k+c]
			}
		}
	}
	return nil
}

// runZR reconstructs z_If (Alg. 2 line 4: z = p(j) - beta(j-1) p(j-1)) and
// r_If. For the block-aligned local preconditioners of the paper's
// experiments, P_{If, I\If} = 0 and line 6 reduces to the local application
// r_If = M_f z_If ([23, Alg. 3]). For an explicitly given global P = M^{-1},
// the generic lines 5-6 run: v = z_If - P_{If, I\If} r_{I\If}, then the SPD
// subsystem P_{If,If} r_If = v is solved over the replacement subgroup.
func (ep *episode) runZR() (int, error) {
	st := ep.st
	if ep.amFailed {
		for _, c := range ep.cols {
			if ep.iter == 0 {
				// p(0) = z(0): no previous search direction exists.
				vec.Copy(st.Z[c].Local, st.P[c].Local)
			} else {
				vec.XpayInto(st.Z[c].Local, st.P[c].Local, -st.Beta[c], ep.pPrev[c])
			}
		}
	}
	switch pm := st.M.(type) {
	case LocalPrecond:
		if ep.amFailed {
			for _, c := range ep.cols {
				pm.P.ApplyM(st.R[c].Local, st.Z[c].Local)
			}
		}
		return 0, nil
	case ExplicitInvPrecond:
		return ep.solveCoupled(pm.P, st.R, func(c int) []float64 {
			return append([]float64(nil), st.Z[c].Local...)
		}, ctxSubP, tagRecRHalo)
	default:
		return 0, fmt.Errorf("core: preconditioner %s does not support reconstruction", st.M.Name())
	}
}

// runXSystem forms w = b_If - r_If - A_{If, I\If} x_{I\If} (Alg. 2 line 7)
// and solves the SPD subsystem A_{If,If} x_If = w (line 8) cooperatively
// over the replacement subgroup ("additional communication between the psi
// replacement nodes is necessary", Sec. 4.1).
func (ep *episode) runXSystem() (int, error) {
	st := ep.st
	return ep.solveCoupled(st.A, st.X, func(c int) []float64 {
		w := append([]float64(nil), st.B[c].Local...)
		vec.Axpy(-1, st.R[c].Local, w)
		return w
	}, ctxSubA, tagRecXHalo)
}

// solveCoupled runs SolveCoupled on the episode's active columns of v.
func (ep *episode) solveCoupled(mat *distmat.Matrix, v []distmat.Vector, base func(c int) []float64, ctx, tag int) (int, error) {
	locals := make([][]float64, len(ep.cols))
	for i, c := range ep.cols {
		locals[i] = v[c].Local
	}
	return SolveCoupled(ep.st.E, mat, ep.failed, ep.failedList, locals, func(i int) []float64 {
		return base(ep.cols[i])
	}, ctx, tag, ep.st.Opts)
}

// lowestSurvivor returns the smallest rank not in the failed set.
func lowestSurvivor(failed map[int]bool, size int) int {
	for r := 0; r < size; r++ {
		if !failed[r] {
			return r
		}
	}
	return -1 // unreachable: schedules are validated against phi < N
}

// shareScalars sends the replicated scalars vals from the lowest surviving
// rank to every replacement in one message each; replacements overwrite
// vals with them (paper Alg. 2 line 3: "retrieve the redundant copies of
// beta(j-1)"; scalars are replicated on all ranks, Sec. 2.2).
func shareScalars(e *distmat.Env, failed map[int]bool, failedList []int, vals []float64) error {
	s0 := lowestSurvivor(failed, e.Size())
	if e.Pos == s0 {
		for _, f := range failedList {
			if err := e.C.Send(cluster.CatRecovery, f, tagRecScalar, vals, nil); err != nil {
				return err
			}
		}
	}
	if !failed[e.Pos] {
		return nil
	}
	got, err := e.C.RecvFloats(s0, tagRecScalar)
	if err != nil {
		return err
	}
	if len(got) != len(vals) {
		return fmt.Errorf("core: scalar recovery got %d values, want %d", len(got), len(vals))
	}
	copy(vals, got)
	return nil
}

// SolveCoupled rebuilds the failed blocks v_If of k distributed vectors
// from the survivors' entries: with base(c) column c's local right-hand side
// on a replacement (a fresh slice), it solves
// mat_{If,If} v_If = base(c) - mat_{If, I\If} v_{I\If} over the replacement
// subgroup, writing the solution into locals[c]. The survivors' halo
// entries of all k columns travel in one k-strided frame per replacement
// (GatherGhost) and the k systems share one SubsystemSolve. All ranks call
// it; it returns the subsystem iteration count (0 on survivors).
func SolveCoupled(e *distmat.Env, mat *distmat.Matrix, failed map[int]bool, failedList []int, locals [][]float64, base func(c int) []float64, ctx, tag int, opts Options) (int, error) {
	ghosts, err := GatherGhost(e, mat, locals, failed, failedList, tag)
	if err != nil || !failed[e.Pos] {
		return 0, err
	}
	rhs := make([][]float64, len(locals))
	for c := range locals {
		rhs[c] = base(c)
		neg := make([]float64, len(rhs[c]))
		mat.GhostProduct(neg, ghosts[c])
		vec.Axpy(-1, neg, rhs[c])
	}
	return SubsystemSolve(e, mat, failedList, rhs, locals, ctx, opts.LocalTol, opts.LocalMaxIter)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
