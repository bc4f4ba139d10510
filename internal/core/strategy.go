package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
)

// Strategy names (the wire values of engine.Config.Strategy and the esrd
// -strategy flag).
const (
	// StrategyESR is the paper's contribution: exact state reconstruction
	// from the redundant search-direction copies the SpMV moves anyway.
	StrategyESR = "esr"
	// StrategyCheckpoint is the checkpoint/restart baseline the paper
	// positions ESR against (Sec. 1.2, 2.2): periodic coordinated saves to
	// reliable storage, rollback and redo after a failure.
	StrategyCheckpoint = "checkpoint"
	// StrategyRestart is the null strategy: no steady-state protection at
	// all; a failure throws every iteration away and the solve restarts
	// from the initial guess x0.
	StrategyRestart = "restart"
	// StrategyTwin is the TwinCG-style scheme (arXiv:1605.04580): a shadow
	// replica of the solver state with periodic checksum exchange, forward
	// recovery of silent data corruption (no rollback), and delegation to
	// ESR reconstruction for fail-stop failures.
	StrategyTwin = "twin"
)

// DefaultTwinInterval is the default twin checksum-exchange cadence: every
// iteration, so a bit-flip is caught at its own poll point — before it leaks
// into a reduction — and the restored state is bitwise the fault-free one.
const DefaultTwinInterval = 1

// NumRecoveryPhases is the number of recovery-episode phases at whose
// boundaries overlapping failures can strike (paper Sec. 4.1). Rollback
// strategies use the same phase grid so one faults.Schedule stresses every
// strategy identically.
const NumRecoveryPhases = numPhases

// SolverState is the live state of the resilient PCG driver, exposed to
// Strategy implementations at the driver's poll points. The driver runs k
// independent PCG recurrences in lockstep, so every slice holds one entry
// per column; k = 1 is the single right-hand-side solve. Every rank holds
// its own SolverState (the vectors carry the rank-local blocks; the scalars
// are replicated), while one Strategy instance is shared by all ranks of a
// solve — strategies keep cross-rank state (such as a checkpoint store)
// internally and per-rank state on this struct.
type SolverState struct {
	E     *distmat.Env
	A     *distmat.Matrix
	M     Precond
	Opts  Options
	Sched *faults.Schedule

	// B, X, R, Z, P, U are the right-hand sides and the PCG iteration
	// vectors (solution, residual, preconditioned residual, search
	// direction, A*P), one per column.
	B, X, R, Z, P, U []distmat.Vector
	// R0[c] is ||r(0)||, RZ[c] is r(j)'z(j), Beta[c] is beta(j-1) of
	// column c; all replicated.
	R0, RZ, Beta []float64

	// X0 holds clones of the rank's initial-guess blocks, kept only when
	// the strategy needs a cold-restart target (see RestartStrategy).
	X0 [][]float64

	// Twin is the rank's shadow replica, kept only by the twin strategy
	// (see NewTwinStrategy).
	Twin *TwinShadow

	// done masks a column out of the iteration: converged (xFinal holds
	// its solution) or failed. Frozen columns stop updating but keep their
	// slot in the k-wide SpMM, halo frames and retention generations, so
	// the still-active columns run exactly as they would alone. Every rank
	// freezes the same columns off the shared allreduce results.
	done []bool
	// xFinal[c] is column c's solution block at convergence: the column's
	// delivered result, which later wipes and rollbacks leave alone.
	xFinal [][]float64
}

// Wipe destroys this rank's dynamic solver data, simulating the memory loss
// of a node failure. NaN poisoning guarantees that any value the recovery
// fails to rebuild surfaces in the results instead of silently reusing stale
// data. X0 survives: the initial guess is re-readable from reliable storage,
// like the static data (matrix block, b block, preconditioner).
func (st *SolverState) Wipe() {
	nan := math.NaN()
	for c := range st.X {
		for _, v := range []distmat.Vector{st.X[c], st.R[c], st.Z[c], st.P[c], st.U[c]} {
			vec.Fill(v.Local, nan)
		}
		st.R0[c], st.RZ[c], st.Beta[c] = nan, nan, nan
	}
	if st.A.Ret != nil {
		st.A.Ret.Wipe()
	}
}

// active returns the columns still iterating.
func (st *SolverState) active() []int {
	var cols []int
	for c, d := range st.done {
		if !d {
			cols = append(cols, c)
		}
	}
	return cols
}

// Strategy is the failure-recovery seam of the resilient PCG driver
// (ResilientPCG): it owns both halves of a resilience scheme — the
// steady-state overhead work of every iteration (ESR's redundancy rides the
// SpMV, checkpointing saves state periodically, restart does nothing) and
// the recovery episode after a failure (reconstruction vs rollback-and-redo
// vs cold restart). Failure events from one faults.Schedule are dispatched
// to whichever strategy is active, including overlapping failures at
// recovery-phase boundaries (Sec. 4.1 and its rollback analogue).
//
// One Strategy instance is shared by every rank of a solve, so hooks are
// called concurrently (one call per rank) and collectively: every rank
// reaches the same hooks in the same order, so implementations may use the
// state's collectives. Per-rank data lives on the SolverState.
type Strategy interface {
	// Name returns the strategy's wire name (one of the Strategy* consts).
	Name() string
	// Init runs once per solve on every rank, after the initial residual
	// setup and before the first iteration.
	Init(st *SolverState) error
	// Overhead runs the steady-state protection work at the top of
	// iteration j, before the SpMV.
	Overhead(st *SolverState, j int) error
	// Recover handles the failure of victims detected at the poll point of
	// iteration j (after the SpMV distributed the redundant copies). On
	// return, resume directs the driver: resume < 0 means the state of
	// iteration j was reconstructed in place (the driver redoes only the
	// SpMV of j and continues), resume >= 0 means the state was rolled back
	// and the driver redoes iterations from resume.
	Recover(st *SolverState, j int, victims []int) (resume int, rec Reconstruction, err error)
}

// StrategyStats aggregates the per-solve observables of a recovery strategy:
// the steady-state overhead and the recovery cost, in the units of the
// paper's Sec. 4.2 accounting (float elements moved, iterations redone).
// The engine aggregates these per strategy for its health gauges, exactly
// like cluster.TransportStats per fabric.
type StrategyStats struct {
	// Solves counts finished solves under the strategy.
	Solves int64 `json:"solves"`
	// Episodes counts recovery episodes (reconstructions, rollbacks or
	// cold restarts).
	Episodes int64 `json:"episodes"`
	// Restarts counts episode restarts forced by overlapping failures
	// (Sec. 4.1) — cascading rollbacks for the checkpoint strategy.
	Restarts int64 `json:"restarts"`
	// RedoneIterations counts iterations executed beyond the converged
	// count (WorkIterations - Iterations): the redo cost of rollback-style
	// strategies; 0 for ESR.
	RedoneIterations int64 `json:"redone_iterations"`
	// Checkpoints counts complete coordinated checkpoints saved.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointFloats counts float64 elements shipped to and from
	// simulated reliable storage (cluster.CatCheckpoint).
	CheckpointFloats int64 `json:"checkpoint_floats"`
	// RedundancyFloats counts the extra ESR elements piggybacked on the
	// SpMV halo traffic (cluster.CatRedundancy).
	RedundancyFloats int64 `json:"redundancy_floats"`
	// RecoveryFloats counts reconstruction-episode traffic
	// (cluster.CatRecovery).
	RecoveryFloats int64 `json:"recovery_floats"`
	// SDCInjected counts silent-data-corruption injections
	// (faults.Corruption events fired at poll points).
	SDCInjected int64 `json:"sdc_injected"`
	// SDCDetected counts corruptions detected, by twin divergence or by the
	// periodic true-residual check.
	SDCDetected int64 `json:"sdc_detected"`
	// SDCCorrected counts corruptions repaired by forward recovery (twin
	// strategy only; detection-only solves detect but never correct).
	SDCCorrected int64 `json:"sdc_corrected"`
	// RecoveryTime is the wall-clock time spent in recovery episodes.
	RecoveryTime time.Duration `json:"recovery_ns"`
}

// Add accumulates o into s.
func (s *StrategyStats) Add(o StrategyStats) {
	s.Solves += o.Solves
	s.Episodes += o.Episodes
	s.Restarts += o.Restarts
	s.RedoneIterations += o.RedoneIterations
	s.Checkpoints += o.Checkpoints
	s.CheckpointFloats += o.CheckpointFloats
	s.RedundancyFloats += o.RedundancyFloats
	s.RecoveryFloats += o.RecoveryFloats
	s.SDCInjected += o.SDCInjected
	s.SDCDetected += o.SDCDetected
	s.SDCCorrected += o.SDCCorrected
	s.RecoveryTime += o.RecoveryTime
}

// StatsFromResult derives the result-borne half of the strategy stats (the
// counter-borne half — float volumes — comes from the runtime's
// cluster.Counters).
func StatsFromResult(res Result) StrategyStats {
	st := StrategyStats{
		Solves:           1,
		Episodes:         int64(len(res.Reconstructions)),
		RedoneIterations: int64(res.WorkIterations - res.Iterations),
		SDCInjected:      int64(res.SDCInjected),
		SDCDetected:      int64(res.SDCDetected),
		SDCCorrected:     int64(res.SDCCorrected),
		RecoveryTime:     res.ReconstructTime,
	}
	for _, rec := range res.Reconstructions {
		st.Restarts += int64(rec.Restarts)
	}
	return st
}

// esrStrategy is the paper's exact-state-reconstruction scheme.
type esrStrategy struct{}

// NewESRStrategy returns the exact-state-reconstruction strategy (the
// paper's contribution): zero explicit overhead work per iteration — the phi
// redundant copies of the search direction ride the SpMV — and an in-place
// Alg. 2 reconstruction on failure.
func NewESRStrategy() Strategy { return esrStrategy{} }

func (esrStrategy) Name() string { return StrategyESR }

func (esrStrategy) Init(st *SolverState) error {
	// Corruption-only schedules need no redundancy: corruption victims keep
	// running, so only fail-stop events require the ESR copies.
	if st.Sched.HasFailStop() && st.A.Ret == nil {
		return fmt.Errorf("core: ESR recovery needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	return nil
}

func (esrStrategy) Overhead(*SolverState, int) error { return nil }

func (esrStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	rec, err := st.recoverEpisode(j, victims)
	return -1, rec, err
}

// restartStrategy is the null scheme: cold restart from x0.
type restartStrategy struct{}

// NewRestartStrategy returns the cold-restart strategy: no steady-state
// protection work at all; on failure, every rank resets to the initial guess
// x0 and the whole solve is redone. The cheapest possible steady state and
// the most expensive possible recovery — the lower bound every protection
// scheme must beat.
func NewRestartStrategy() Strategy { return restartStrategy{} }

func (restartStrategy) Name() string { return StrategyRestart }

func (restartStrategy) Init(st *SolverState) error {
	st.X0 = make([][]float64, len(st.X))
	for c, x := range st.X {
		st.X0[c] = vec.Clone(x.Local)
	}
	return nil
}

func (restartStrategy) Overhead(*SolverState, int) error { return nil }

func (restartStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(st.Sched, j, st.E.Pos, st.Wipe, victims)
	// Overlapping failures at the recovery-phase grid only enlarge the
	// failed set — a cold restart resets everything regardless — but each
	// batch still restarts the episode for the Sec. 4.1 accounting.
	for phase := 1; phase <= NumRecoveryPhases; phase++ {
		if ef.AtPhase(phase) {
			rec.Restarts++
		}
	}
	rec.FailedRanks = ef.Ranks()
	// Every rank resets to the initial guess and rebuilds the iteration-0
	// state; the replacements read x0 from reliable storage like the other
	// static data.
	for c, x := range st.X {
		copy(x.Local, st.X0[c])
	}
	if err := initIteration0(st); err != nil {
		return 0, rec, err
	}
	rec.Duration = time.Since(startT)
	return 0, rec, nil
}
