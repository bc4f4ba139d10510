package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// sdcDriftTol is the relative tolerance of the true-residual consistency
// check: the recurrence residual ||r|| and the recomputed ||b - A x|| must
// agree to within sdcDriftTol * max(||r0||, ||b - A x||). Benign floating-
// point drift between the two is orders of magnitude below this; a bit flip
// that matters is orders of magnitude above it (a flip whose effect stays
// under the threshold is also below the solve's accuracy target).
const sdcDriftTol = 1e-7

// SDCDetectedError reports that the silent-data-corruption check found the
// recurrence residual inconsistent with the true residual ||b - A x||: some
// solver state was corrupted, and the active strategy cannot repair it. The
// solve is failed instead of converging to a silently wrong answer.
type SDCDetectedError struct {
	// Iteration is the solver iteration of the failed check.
	Iteration int
	// TrueResidual is the recomputed ||b - A x||; RecurrenceResidual is the
	// solver's ||r|| at the check.
	TrueResidual, RecurrenceResidual float64
}

// Error implements the error interface.
func (e *SDCDetectedError) Error() string {
	return fmt.Sprintf("core: silent data corruption detected at iteration %d: true residual %g vs recurrence residual %g",
		e.Iteration, e.TrueResidual, e.RecurrenceResidual)
}

// Is claims the data_loss error class.
func (e *SDCDetectedError) Is(target error) bool { return target == xerr.DataLoss }

// TwinShadow is the shadow replica of one rank's solver state, kept by the
// twin strategy. The shadow is refreshed at the top of every TwinInterval-th
// iteration and compared (checksum first, full state only on mismatch)
// against the primary at the same iteration's poll point — the window in
// between mutates only u, so any divergence is corruption, not computation.
type TwinShadow struct {
	// X, R, Z, P are the shadow copies of the iteration vectors' local
	// blocks.
	X, R, Z, P []float64

	// scratch and cand are collective work vectors of the twin vote
	// (candidate residuals, u-tests, recomputed z).
	scratch, cand distmat.Vector
}

// sync refreshes the shadow from the primary state.
func (tw *TwinShadow) sync(st *SolverState) {
	copy(tw.X, st.X[0].Local)
	copy(tw.R, st.R[0].Local)
	copy(tw.Z, st.Z[0].Local)
	copy(tw.P, st.P[0].Local)
}

// checksum64 is a cheap FNV-1a-style digest over the float bit patterns: the
// twins exchange this one word per vector, and only a mismatch triggers the
// full-state comparison. One multiply per element; collisions are verified
// away by the full compare that follows any mismatch.
func checksum64(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// SDCOutcome reports one twin poll to the driver.
type SDCOutcome struct {
	// Detected counts diverged (vector, rank) pairs; Corrected counts the
	// pairs repaired by forward recovery.
	Detected, Corrected int
	// Ranks lists the diverged ranks (the RecoveryTrace FailedRanks).
	Ranks []int
	// Redo directs the driver to redo the SpMV of the poll iteration and
	// recompute r'z: the repair rebuilt state non-bitwise (drift repair or
	// an unresolvable u-test), so u must be refreshed from the repaired p.
	Redo bool
}

// sdcPoller is the optional Strategy extension the driver probes at the
// corruption poll point. The twin strategy implements it; strategies without
// it fall back to the detection-only SDCCheck path.
type sdcPoller interface {
	// PollSDC compares the twins at iteration j's poll point, votes on the
	// healthy replica and copies it forward. Collective: every rank calls it
	// at the same poll points.
	PollSDC(st *SolverState, j int) (SDCOutcome, error)
	// RepairDrift forward-recovers from detected residual drift: the
	// recurrences restart from the current iterate (r = b - A x,
	// z = M^{-1} r, p = z), with no rollback. Collective.
	RepairDrift(st *SolverState, j int) error
}

// twinStrategy is the TwinCG-style scheme: shadow replica + checksum
// exchange + forward recovery for corruption, ESR delegation for fail-stop.
type twinStrategy struct {
	interval int
}

// NewTwinStrategy returns the twin-replica strategy (TwinCG,
// arXiv:1605.04580, adapted to the ESR driver): every `interval` iterations
// the driver snapshots a shadow replica of the solver state and compares a
// cheap checksum against it at the same iteration's poll point. Divergence
// flags corruption; a scalar-residual vote (|| b - A x|| consistency for
// x/r, an A p == u test for p, recomputation for z) picks the healthy twin,
// whose state is copied forward — forward recovery, no rollback. With the
// default interval of 1 a scheduled bit flip is repaired bitwise at its own
// poll point, so the solve stays bit-identical to the fault-free run.
// Fail-stop failures delegate to the ESR reconstruction, so one schedule may
// mix kills with bit flips.
func NewTwinStrategy(interval int) Strategy {
	if interval <= 0 {
		interval = DefaultTwinInterval
	}
	return &twinStrategy{interval: interval}
}

func (t *twinStrategy) Name() string { return StrategyTwin }

func (t *twinStrategy) Init(st *SolverState) error {
	if len(st.X) > 1 {
		return fmt.Errorf("core: the twin strategy shadows a single column, not %d", len(st.X))
	}
	if st.Sched.HasFailStop() && st.A.Ret == nil {
		return fmt.Errorf("core: twin fail-stop recovery delegates to ESR and needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	n := len(st.X[0].Local)
	st.Twin = &TwinShadow{
		X: make([]float64, n), R: make([]float64, n),
		Z: make([]float64, n), P: make([]float64, n),
		scratch: distmat.NewVector(st.A.P, st.E.Pos),
		cand:    distmat.NewVector(st.A.P, st.E.Pos),
	}
	return nil
}

// Overhead refreshes the shadow at the top of every interval-th iteration.
// Nothing has mutated the compared state since the previous iteration's
// updates, so the snapshot is the exact pre-poll-point state of iteration j.
func (t *twinStrategy) Overhead(st *SolverState, j int) error {
	if j%t.interval == 0 {
		st.Twin.sync(st)
	}
	return nil
}

// Recover handles fail-stop victims by delegating to the ESR reconstruction,
// then re-arms the shadow with the reconstructed state.
func (t *twinStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	rec, err := st.recoverEpisode(j, victims)
	if err == nil {
		st.Twin.sync(st)
	}
	return -1, rec, err
}

// PollSDC implements sdcPoller: the twins compare checksums; on divergence a
// vote picks the healthy replica per vector and copies it forward.
func (t *twinStrategy) PollSDC(st *SolverState, j int) (SDCOutcome, error) {
	var out SDCOutcome
	if j%t.interval != 0 {
		return out, nil
	}
	tw := st.Twin
	e := st.E
	size := e.Size()

	// Cheap checksum exchange: one word per vector. The divergence flags are
	// shared collectively, so every rank takes the same vote branches.
	flags := make([]float64, 4+size)
	diverged := false
	for i, pair := range [4][2][]float64{
		{st.X[0].Local, tw.X}, {st.R[0].Local, tw.R}, {st.Z[0].Local, tw.Z}, {st.P[0].Local, tw.P},
	} {
		if checksum64(pair[0]) != checksum64(pair[1]) {
			flags[i] = 1
			diverged = true
		}
	}
	if diverged {
		flags[4+e.Pos] = 1
	}
	global, err := e.Grp.Allreduce(cluster.OpSum, flags)
	if err != nil {
		return out, err
	}
	cx, cr, cz, cp := int(global[0]), int(global[1]), int(global[2]), int(global[3])
	var ranks []int
	for r := 0; r < size; r++ {
		if global[4+r] > 0 {
			ranks = append(ranks, r)
		}
	}
	e.Grp.Recycle(global)
	if cx+cr+cz+cp == 0 {
		return out, nil
	}
	out.Detected = cx + cr + cz + cp
	out.Ranks = ranks

	// Scalar-residual vote for x/r: score each twin's (x, r) candidate by
	// the consistency |  ||b - A x|| - ||r||  | and copy the winner forward.
	// Ties favour the shadow — the replica the injection never touches.
	if cx+cr > 0 {
		if err := st.A.Residual(e, tw.scratch, st.B[0], st.X[0], -1); err != nil {
			return out, err
		}
		tp := vec.ParNrm2SqN(tw.scratch.Local, st.Opts.Threads)
		rp := vec.ParNrm2SqN(st.R[0].Local, st.Opts.Threads)
		copy(tw.cand.Local, tw.X)
		if err := st.A.Residual(e, tw.scratch, st.B[0], tw.cand, -1); err != nil {
			return out, err
		}
		ts := vec.ParNrm2SqN(tw.scratch.Local, st.Opts.Threads)
		rs := vec.ParNrm2SqN(tw.R, st.Opts.Threads)
		norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{tp, rp, ts, rs})
		if err != nil {
			return out, err
		}
		scoreP := math.Abs(math.Sqrt(norms[0]) - math.Sqrt(norms[1]))
		scoreS := math.Abs(math.Sqrt(norms[2]) - math.Sqrt(norms[3]))
		e.Grp.Recycle(norms)
		if !(scoreP < scoreS) {
			// Shadow wins (NaN scores land here too): copy it forward.
			copy(st.X[0].Local, tw.X)
			copy(st.R[0].Local, tw.R)
		} else {
			copy(tw.X, st.X[0].Local)
			copy(tw.R, st.R[0].Local)
		}
		out.Corrected += cx + cr
	}

	// z is a pure function of the (now settled) r: recompute it. The result
	// is bitwise the fault-free z, because z = M^{-1} r was computed from
	// this same r at the end of the previous iteration.
	if cz > 0 {
		if err := st.M.Apply(e, tw.scratch, st.R[0]); err != nil {
			return out, err
		}
		copy(st.Z[0].Local, tw.scratch.Local)
		copy(tw.Z, st.Z[0].Local)
		out.Corrected += cz
	}

	// u-test vote for p: u = A p was computed from the clean p this very
	// iteration, before the injection point, so the healthy candidate is the
	// one with A p == u bitwise.
	if cp > 0 {
		okPrimary, err := t.uTest(st, st.P[0])
		if err != nil {
			return out, err
		}
		if okPrimary {
			copy(tw.P, st.P[0].Local)
		} else {
			copy(tw.cand.Local, tw.P)
			okShadow, err := t.uTest(st, tw.cand)
			if err != nil {
				return out, err
			}
			// The shadow is authoritative either way (the injection never
			// touches it); if even the shadow fails the u-test, u itself is
			// corrupted (e.g. a corrupted halo wire) and must be redone from
			// the restored p.
			copy(st.P[0].Local, tw.P)
			if !okShadow {
				out.Redo = true
			}
		}
		out.Corrected += cp
	}
	return out, nil
}

// uTest computes A·p into scratch and reports whether it matches the stored
// u bitwise on every rank. Collective.
func (t *twinStrategy) uTest(st *SolverState, p distmat.Vector) (bool, error) {
	tw := st.Twin
	if err := st.A.MatVec(st.E, tw.scratch, p, -1); err != nil {
		return false, err
	}
	ok := 1.0
	for i, v := range tw.scratch.Local {
		if math.Float64bits(v) != math.Float64bits(st.U[0].Local[i]) {
			ok = 0
			break
		}
	}
	allOK, err := st.E.Grp.AllreduceScalar(cluster.OpMin, ok)
	if err != nil {
		return false, err
	}
	return allOK == 1, nil
}

// RepairDrift implements sdcPoller's forward recovery from residual drift
// (corruption that slipped past the checksum window, e.g. between twin
// exchanges or on a corrupted wire): the recurrences restart from the
// current iterate — r = b - A x, z = M^{-1} r, p = z, beta = 0 — treating x
// as a fresh initial guess. No rollback; ||r0|| (and with it the convergence
// target) is preserved.
func (t *twinStrategy) RepairDrift(st *SolverState, j int) error {
	if err := st.A.Residual(st.E, st.R[0], st.B[0], st.X[0], -1); err != nil {
		return err
	}
	if err := st.M.Apply(st.E, st.Z[0], st.R[0]); err != nil {
		return err
	}
	vec.Copy(st.P[0].Local, st.Z[0].Local)
	rz, err := distmat.DotN(st.E, st.R[0], st.Z[0], st.Opts.Threads)
	if err != nil {
		return err
	}
	st.RZ[0] = rz
	st.Beta[0] = 0
	st.Twin.sync(st)
	return nil
}

// applyCorruption flips the scheduled bit in the target vector's local
// block. Only the victim rank mutates state; the index wraps modulo the
// local length so one schedule is meaningful across partitionings.
func applyCorruption(st *SolverState, c faults.CorruptionSite) {
	var v []float64
	switch c.Target {
	case faults.TargetX:
		v = st.X[0].Local
	case faults.TargetR:
		v = st.R[0].Local
	case faults.TargetP:
		v = st.P[0].Local
	case faults.TargetZ:
		v = st.Z[0].Local
	}
	if len(v) == 0 {
		return
	}
	i := c.Index % len(v)
	v[i] = c.Flip(v[i])
}

// sdcDrift recomputes every column's true residual and its recurrence
// residual, all under one fused length-2k allreduce. Collective.
func sdcDrift(st *SolverState, scratch []distmat.Vector) (rtrue, rrec []float64, err error) {
	if err = st.A.ResidualBlock(st.E, scratch, st.B, st.X, -1); err != nil {
		return nil, nil, err
	}
	fused := make([]float64, 2*len(scratch))
	for c := range scratch {
		fused[2*c] = vec.ParNrm2SqN(scratch[c].Local, st.Opts.Threads)
		fused[2*c+1] = vec.ParNrm2SqN(st.R[c].Local, st.Opts.Threads)
	}
	norms, err := st.E.Grp.Allreduce(cluster.OpSum, fused)
	if err != nil {
		return nil, nil, err
	}
	rtrue = make([]float64, len(scratch))
	rrec = make([]float64, len(scratch))
	for c := range scratch {
		rtrue[c] = math.Sqrt(norms[2*c])
		rrec[c] = math.Sqrt(norms[2*c+1])
	}
	st.E.Grp.Recycle(norms)
	return rtrue, rrec, nil
}

// drifted reports whether the true and recurrence residuals disagree beyond
// sdcDriftTol. Negated comparison: NaN (a corruption that overflowed the
// state) counts as drift, not as agreement.
func drifted(rtrue, rrec, r0 float64) bool {
	return !(math.Abs(rtrue-rrec) <= sdcDriftTol*math.Max(r0, rtrue))
}
