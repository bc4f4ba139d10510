package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
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

// recoverEpisode executes one reconstruction episode for the failure of
// `victims` detected at iteration j. It returns when every rank (survivors
// and replacements) holds a consistent solver state for iteration j.
func (st *SolverState) recoverEpisode(j int, victims []int) (Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(st.Sched, j, st.E.Pos, st.Wipe, victims)

restart:
	failedList := ef.Ranks()
	rec.FailedRanks = failedList
	ep := &episode{
		st:         st,
		iter:       j,
		failed:     ef.Failed,
		failedList: failedList,
		amFailed:   ef.AmFailed(),
	}
	for phase := 1; phase <= numPhases; phase++ {
		// Overlapping failures strike at phase boundaries; restarting with
		// the union set re-runs the completed phases deterministically.
		if ef.AtPhase(phase) {
			rec.Restarts++
			goto restart
		}
		var err error
		switch phase {
		case phaseScalars:
			err = ep.runScalars()
		case phasePGather:
			err = ep.runPGather()
		case phaseZR:
			err = ep.runZR()
		case phaseXSystem:
			err = ep.runXSystem()
		case phaseFinalize:
			// Synchronises all ranks and replicates the subsystem iteration
			// count (only replacements solved the subsystem).
			var iters float64
			iters, err = st.E.Grp.AllreduceScalar(cluster.OpMax, float64(ep.subIters))
			ep.subIters = int(iters)
		}
		if err != nil {
			return rec, err
		}
	}
	rec.SubIterations = ep.subIters
	rec.Duration = time.Since(startT)
	return rec, nil
}

// episode is the per-attempt state of a reconstruction.
type episode struct {
	st         *SolverState
	iter       int
	failed     map[int]bool
	failedList []int
	amFailed   bool

	pPrev    []float64 // p(j-1) on the replacement's block
	subIters int
}

// lowestSurvivor returns the smallest rank not in the failed set.
func (ep *episode) lowestSurvivor() int {
	for r := 0; r < ep.st.E.Size(); r++ {
		if !ep.failed[r] {
			return r
		}
	}
	return -1 // unreachable: schedules are validated against phi < N
}

// runScalars transfers the replicated scalars beta(j-1) and ||r0|| from the
// lowest surviving rank to every replacement (paper Alg. 2 line 3: "retrieve
// the redundant copies of beta(j-1)"; scalars are replicated on all ranks,
// Sec. 2.2).
func (ep *episode) runScalars() error {
	st := ep.st
	s0 := ep.lowestSurvivor()
	if st.E.Pos == s0 {
		for _, f := range ep.failedList {
			if err := st.E.C.Send(cluster.CatRecovery, f, tagRecScalar, []float64{st.Beta, st.R0}, nil); err != nil {
				return err
			}
		}
	}
	if ep.amFailed {
		vals, err := st.E.C.RecvFloats(s0, tagRecScalar)
		if err != nil {
			return err
		}
		st.Beta = vals[0]
		st.R0 = vals[1]
	}
	return nil
}

// runPGather reconstructs p(j)_If and p(j-1)_If on the replacements from
// the redundant copies, using the tailored recovery context (README.md,
// "Stand-ins for the paper's setup"):
// each replacement derives, from the static plan, which surviving rank holds
// each element and requests exactly one copy per element.
func (ep *episode) runPGather() error {
	st := ep.st
	gens := []int{ep.iter}
	ep.pPrev = make([]float64, len(st.P.Local))
	out := [][]float64{st.P.Local}
	if ep.iter > 0 {
		gens = append(gens, ep.iter-1)
		out = append(out, ep.pPrev)
	}
	return RecoverBlocks(st.E, st.A, ep.iter, ep.failed, ep.failedList, gens, out)
}

// runZR reconstructs z_If (Alg. 2 line 4: z = p(j) - beta(j-1) p(j-1)) and
// r_If. For the block-aligned local preconditioners of the paper's
// experiments, P_{If, I\If} = 0 and line 6 reduces to the local application
// r_If = M_f z_If ([23, Alg. 3]). For an explicitly given global P = M^{-1},
// the generic lines 5-6 run: v = z_If - P_{If, I\If} r_{I\If}, then the SPD
// subsystem P_{If,If} r_If = v is solved over the replacement subgroup.
func (ep *episode) runZR() error {
	st := ep.st
	if ep.amFailed {
		if ep.iter == 0 {
			// p(0) = z(0): no previous search direction exists.
			vec.Copy(st.Z.Local, st.P.Local)
		} else {
			vec.XpayInto(st.Z.Local, st.P.Local, -st.Beta, ep.pPrev)
		}
	}
	switch pm := st.M.(type) {
	case LocalPrecond:
		if ep.amFailed {
			pm.P.ApplyM(st.R.Local, st.Z.Local)
		}
		return nil
	case ExplicitInvPrecond:
		return ep.reconstructRExplicit(pm)
	default:
		return fmt.Errorf("core: preconditioner %s does not support reconstruction", st.M.Name())
	}
}

// reconstructRExplicit runs Alg. 2 lines 5-6 with an explicit P = M^{-1}:
// v = z_If - P_{If, I\If} r_{I\If}, then the SPD subsystem
// P_{If,If} r_If = v is solved over the replacement subgroup.
func (ep *episode) reconstructRExplicit(pm ExplicitInvPrecond) error {
	st := ep.st
	ghost, err := GatherGhost(st.E, pm.P, st.R.Local, ep.failed, ep.failedList, tagRecRHalo)
	if err != nil {
		return err
	}
	if !ep.amFailed {
		return nil
	}
	v := append([]float64(nil), st.Z.Local...)
	neg := make([]float64, len(v))
	pm.P.GhostProduct(neg, ghost)
	vec.Axpy(-1, neg, v)
	iters, err := SubsystemSolve(st.E, pm.P, ep.failedList, v, st.R.Local, ctxSubP,
		st.Opts.LocalTol, st.Opts.LocalMaxIter)
	if err != nil {
		return err
	}
	ep.subIters += iters
	return nil
}

// runXSystem forms w = b_If - r_If - A_{If, I\If} x_{I\If} (Alg. 2 line 7)
// and solves the SPD subsystem A_{If,If} x_If = w (line 8) cooperatively
// over the replacement subgroup ("additional communication between the psi
// replacement nodes is necessary", Sec. 4.1).
func (ep *episode) runXSystem() error {
	st := ep.st
	ghost, err := GatherGhost(st.E, st.A, st.X.Local, ep.failed, ep.failedList, tagRecXHalo)
	if err != nil {
		return err
	}
	if !ep.amFailed {
		return nil
	}
	// w = b_If - r_If - A_{If, I\If} x_{I\If}
	w := append([]float64(nil), st.B.Local...)
	vec.Axpy(-1, st.R.Local, w)
	neg := make([]float64, len(w))
	st.A.GhostProduct(neg, ghost)
	vec.Axpy(-1, neg, w)

	iters, err := SubsystemSolve(st.E, st.A, ep.failedList, w, st.X.Local, ctxSubA,
		st.Opts.LocalTol, st.Opts.LocalMaxIter)
	if err != nil {
		return err
	}
	ep.subIters += iters
	return nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
