// Package engine is the concurrent solve-job subsystem: a typed JobSpec
// (matrix source, right-hand side, solver configuration), a bounded worker
// pool with a FIFO queue, per-job context cancellation and deadlines, a
// progress-event stream, and an in-memory result store with job lifecycle
// states (queued -> running -> done|failed|cancelled).
//
// The package also owns the single-job solve path (SolveSystem): the public
// esr.Solve / esr.SolveContext entry points and the engine's workers share
// this one code path, so a job submitted to the cmd/esrd daemon runs exactly
// the library call.
package engine

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// Preconditioner names accepted by Config.
const (
	PrecondIdentity        = "identity"
	PrecondJacobi          = "jacobi"
	PrecondBlockJacobiILU  = "block-jacobi-ilu"
	PrecondBlockJacobiChol = "block-jacobi-cholesky"
	PrecondSSOR            = "ssor"
	PrecondIC0             = "ic0"
)

// Method names accepted by Config. The empty string selects the resilient
// ESR-PCG driver, which is plain PCG for failure-free runs without
// redundancy (phi 0, no schedule).
const (
	MethodAuto   = ""
	MethodPCG    = "pcg"
	MethodESRPCG = "esrpcg"
	MethodSPCG   = "spcg"
)

// Strategy names accepted by Config (mirroring internal/core). The empty
// string selects the default ESR strategy.
const (
	// StrategyESR recovers with the paper's exact state reconstruction:
	// zero explicit per-iteration work (the redundancy rides the SpMV) and
	// an in-place Alg. 2 reconstruction on failure. Needs Phi >= 1 to
	// honour a failure schedule.
	StrategyESR = core.StrategyESR
	// StrategyCheckpoint is the checkpoint/restart baseline: a coordinated
	// save to reliable storage every CheckpointInterval iterations, and a
	// rollback-and-redo on failure. Works at Phi 0.
	StrategyCheckpoint = core.StrategyCheckpoint
	// StrategyRestart is the null strategy: no protection work at all; a
	// failure restarts the solve from the initial guess. Works at Phi 0.
	StrategyRestart = core.StrategyRestart
	// StrategyTwin is the TwinCG-style twin-replica scheme: a node-local
	// shadow copy of the solver state, compared by checksum every
	// TwinInterval iterations; on divergence a scalar-residual vote picks
	// the healthy copy and the solve continues forward (no rollback). The
	// only strategy that *corrects* silent data corruption. Fail-stop
	// failures delegate to ESR reconstruction, so it needs Phi >= 1 to
	// honour a fail-stop schedule (corruption-only schedules run at Phi 0).
	StrategyTwin = core.StrategyTwin
)

// ThreadsAuto is the explicit "automatic" value of Config.Threads: it
// selects GOMAXPROCS like the zero value, but — unlike 0 — is never
// overridden by an engine-level default thread cap, so a client can insist
// on full parallelism against a daemon started with -threads N.
const ThreadsAuto = -1

// DefaultBlockSize is the blocked multi-RHS width applied to batched solves
// whose Config.BlockSize is 0: large enough that the shared SpMM and fused
// allreduces amortize the per-iteration communication over many columns,
// small enough that the k-strided halo frames and the k per-rank column
// vectors stay cache- and pool-friendly.
const DefaultBlockSize = 32

// MaxBlockSize caps Config.BlockSize: one k-wide solve keeps k column
// vectors of every recurrence on every rank plus k-strided halo and
// retention payloads, so an unbounded width from a network-submitted job
// could exhaust memory before the solver's first iteration.
const MaxBlockSize = 4096

// Transport names accepted by Config (mirroring internal/cluster). The
// empty string selects the default chan transport.
const (
	// TransportChan is the default copy-on-send channel fabric.
	TransportChan = cluster.TransportChan
	// TransportFast is the zero-copy fabric with a pooled buffer recycler:
	// identical delivery semantics and bit-identical results, without the
	// steady-state payload allocations.
	TransportFast = cluster.TransportFast
	// TransportChaos perturbs delivery with seeded latency and lagged
	// failure notification, for stressing the resilience protocol.
	TransportChaos = cluster.TransportChaos
	// TransportNet runs every rank-to-rank message over real TCP sockets
	// (loopback self-loop inside one process; internal/netrun spreads ranks
	// across OS processes), with identical delivery semantics and
	// bit-identical results.
	TransportNet = cluster.TransportNet
)

// Config controls a solve. The zero value selects the paper's experimental
// setup. Numerical defaults (Tol, MaxIter, LocalTol) are NOT filled in here:
// their single source of truth is core.Options.withDefaults, which resolves
// zero values against the paper's Sec. 7.1 settings (Tol 1e-8, MaxIter 10 n,
// LocalTol 1e-14) at solve time. Config only normalizes the fields that the
// solver layer cannot default (Ranks, Preconditioner, SSOROmega).
type Config struct {
	// Ranks is the number of simulated compute nodes (default 8).
	Ranks int `json:"ranks,omitempty"`
	// Phi is the number of simultaneous node failures to tolerate
	// (default 0: plain PCG without redundancy).
	Phi int `json:"phi,omitempty"`
	// Preconditioner selects the node-local block preconditioner; see the
	// Precond* constants (default block-jacobi-ilu).
	Preconditioner string `json:"preconditioner,omitempty"`
	// Tol is the relative residual reduction target; <= 0 selects the
	// core.Options default (1e-8, as in the paper).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds the PCG iterations; <= 0 selects the core.Options
	// default (10 n).
	MaxIter int `json:"max_iter,omitempty"`
	// LocalTol is the reconstruction subsystem tolerance; <= 0 selects the
	// core.Options default (1e-14).
	LocalTol float64 `json:"local_tol,omitempty"`
	// SSOROmega is the relaxation factor when Preconditioner is "ssor"
	// (default 1.2). SSOR diverges outside 0 < omega < 2; values outside
	// that range are rejected with an *InvalidOmegaError by Validate.
	SSOROmega float64 `json:"ssor_omega,omitempty"`
	// Method selects the solver: MethodPCG (reference, no failure
	// tolerance), MethodESRPCG (the paper's resilient solver), MethodSPCG
	// (the split-preconditioner variant, requires Preconditioner "ic0"), or
	// MethodAuto ("") which runs ESRPCG under the session's strategy
	// (without redundancy or a schedule, the reference PCG).
	Method string `json:"method,omitempty"`
	// Transport selects the cluster communication fabric: TransportChan
	// (default), TransportFast (zero-copy pooled), TransportChaos
	// (seeded latency + lagged failure notification), or TransportNet
	// (real TCP sockets on loopback). Preparation-scoped:
	// a prepared session runs every solve on its transport, and the field
	// keys the prepared-session cache.
	Transport string `json:"transport,omitempty"`
	// TransportSeed seeds the chaos transport's deterministic delay
	// sequence (default 1; ignored by the other transports).
	TransportSeed int64 `json:"transport_seed,omitempty"`
	// Strategy selects the failure-recovery strategy: StrategyESR
	// (default; the paper's exact state reconstruction), StrategyCheckpoint
	// (the periodic-save/rollback baseline) or StrategyRestart (cold
	// restart from the initial guess). Preparation-scoped: a prepared
	// session runs every solve under its strategy, and the field keys the
	// prepared-session cache.
	Strategy string `json:"strategy,omitempty"`
	// CheckpointInterval is the coordinated-save period in iterations of
	// the checkpoint strategy (default 10; ignored by the others).
	// Negative values are rejected with *InvalidCheckpointIntervalError.
	// Preparation-scoped, like Strategy.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// TwinInterval is the shadow-synchronisation and checksum-comparison
	// period in iterations of the twin strategy (default 1: every
	// iteration is compared, so a bit flip is caught at the poll point of
	// the iteration it strikes and repaired bitwise; ignored by the other
	// strategies). Negative values are rejected with
	// *InvalidTwinIntervalError. Preparation-scoped, like Strategy.
	TwinInterval int `json:"twin_interval,omitempty"`
	// SDCCheckInterval, when > 0, arms the periodic silent-data-corruption
	// detector: every SDCCheckInterval iterations (and once more at
	// convergence) the true residual ||b - A x|| is compared against the
	// recurrence residual. Under the twin strategy detected drift is
	// repaired forward; under every other strategy the solve fails with a
	// data_loss-classed *core.SDCDetectedError instead of silently
	// returning a wrong answer. 0 (the default) disables the detector;
	// negative values are rejected with *InvalidSDCCheckIntervalError. The
	// check needs the resilient solver (it is incompatible with Method
	// "pcg" and "spcg"). Preparation-scoped, like Strategy.
	SDCCheckInterval int `json:"sdc_check_interval,omitempty"`
	// Threads caps the per-rank goroutine fan-out of the node-local parallel
	// kernels (SpMV row chunks, reductions, fused vector updates, the Jacobi
	// preconditioner): 0 (the default) selects GOMAXPROCS automatically.
	// Thread counts never change results — every parallel kernel works over
	// a chunk grid fixed by the data size alone — so this is purely a
	// resource knob for packing many concurrent solves onto one machine.
	// Because an engine-level default (esrd -threads) applies to jobs that
	// leave the field at 0, ThreadsAuto (-1) requests the automatic
	// GOMAXPROCS behaviour *explicitly*, bypassing that default; other
	// negative values are rejected with *InvalidThreadsError.
	// Preparation-scoped: the prepared per-rank kernels bake it in, and the
	// field keys the prepared-session cache.
	Threads int `json:"threads,omitempty"`
	// BlockSize is the width of the blocked multi-RHS solve path: batched
	// right-hand sides are solved in lockstep groups of up to BlockSize
	// columns sharing each SpMM, halo exchange and (fused) allreduce. 0 (the
	// default) selects DefaultBlockSize; 1 disables blocking (every RHS
	// solves independently); other values must lie in [1, MaxBlockSize] and
	// are rejected with *InvalidBlockSizeError otherwise. Batch-scoped: it
	// only shapes SolveBatch/batch jobs, never a single solve, and it is
	// deliberately absent from the prepared-session cache key (no prepared
	// state depends on it — the k-wide retention stores are built per solve).
	BlockSize int `json:"block_size,omitempty"`
	// Schedule injects node failures (nil for a failure-free run).
	Schedule *faults.Schedule `json:"schedule,omitempty"`
	// Progress, when non-nil, observes the solve from rank 0: one event per
	// iteration plus one per reconstruction episode. Not serialized; jobs
	// submitted over the wire stream the same events through the engine.
	Progress core.ProgressFunc `json:"-"`
	// Tracer, when non-nil, observes the solve's per-iteration phase
	// timings, residual trajectory and recovery episodes from rank 0.
	// Observer-only (never changes results) and, like Progress, not
	// serialized; the daemon's trace capture is the wire-side equivalent.
	Tracer core.Tracer `json:"-"`
}

// WithDefaults normalizes the runtime-level fields (see the type doc for why
// the numerical tolerances are left to core.Options). It only fills zero
// values; it never repairs invalid ones — an out-of-range SSOROmega passes
// through unchanged so that Validate can reject it with a typed error
// instead of the solver silently diverging with it.
func (c Config) WithDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 8
	}
	if c.Preconditioner == "" {
		if c.Method == MethodSPCG {
			// SPCG iterates on the transformed residual L^{-1} r and needs
			// the explicit M = L L^T split; IC(0) is the only split-capable
			// preconditioner.
			c.Preconditioner = PrecondIC0
		} else {
			c.Preconditioner = PrecondBlockJacobiILU
		}
	}
	if c.SSOROmega == 0 {
		c.SSOROmega = 1.2
	}
	if c.Transport == "" {
		c.Transport = TransportChan
	}
	if c.TransportSeed == 0 {
		c.TransportSeed = 1
	}
	if c.Strategy == "" {
		c.Strategy = StrategyESR
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = checkpoint.DefaultInterval
	}
	if c.TwinInterval == 0 {
		c.TwinInterval = core.DefaultTwinInterval
	}
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Threads == ThreadsAuto {
		// The explicit-automatic sentinel has served its purpose by the time
		// defaults are applied (the engine's default-threads injection only
		// touches the zero value); normalize it so prep-cache keys and
		// session configs treat "explicitly automatic" and "automatic" as
		// one thing.
		c.Threads = 0
	}
	return c
}

// InvalidOmegaError reports an SSOR relaxation factor outside the open
// interval (0, 2), for which the SSOR sweep diverges.
type InvalidOmegaError struct {
	// Omega is the rejected relaxation factor.
	Omega float64
}

// Error implements the error interface.
func (e *InvalidOmegaError) Error() string {
	return fmt.Sprintf("engine: SSOR omega %g outside (0, 2)", e.Omega)
}

// Is claims the InvalidArgument class, so errors.Is(err, xerr.InvalidArgument)
// holds without wrapping.
func (e *InvalidOmegaError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidStrategyError reports an unknown failure-recovery strategy name.
type InvalidStrategyError struct {
	// Strategy is the rejected name.
	Strategy string
}

// Error implements the error interface.
func (e *InvalidStrategyError) Error() string {
	return fmt.Sprintf("engine: unknown strategy %q (want %q, %q, %q or %q)",
		e.Strategy, StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin)
}

// Is claims the InvalidArgument class.
func (e *InvalidStrategyError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidThreadsError reports a meaningless thread cap: 0 means automatic
// (GOMAXPROCS), ThreadsAuto (-1) means explicitly automatic, positive
// values cap the per-rank kernel fan-out, and nothing else is meaningful.
type InvalidThreadsError struct {
	// Threads is the rejected cap.
	Threads int
}

// Error implements the error interface.
func (e *InvalidThreadsError) Error() string {
	return fmt.Sprintf("engine: threads %d invalid: use a positive cap, 0 for automatic GOMAXPROCS, or -1 for explicitly automatic", e.Threads)
}

// Is claims the InvalidArgument class.
func (e *InvalidThreadsError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidBlockSizeError reports a meaningless blocked multi-RHS width: 0
// means the default, 1..MaxBlockSize are valid widths, and nothing else is
// meaningful.
type InvalidBlockSizeError struct {
	// BlockSize is the rejected width.
	BlockSize int
}

// Error implements the error interface.
func (e *InvalidBlockSizeError) Error() string {
	return fmt.Sprintf("engine: block size %d invalid: use 1..%d, or 0 for the default (%d)",
		e.BlockSize, MaxBlockSize, DefaultBlockSize)
}

// Is claims the InvalidArgument class.
func (e *InvalidBlockSizeError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidCheckpointIntervalError reports a non-positive checkpoint interval:
// a save period of zero or fewer iterations never produces a rollback
// target.
type InvalidCheckpointIntervalError struct {
	// Interval is the rejected period.
	Interval int
}

// Error implements the error interface.
func (e *InvalidCheckpointIntervalError) Error() string {
	return fmt.Sprintf("engine: checkpoint interval %d must be positive", e.Interval)
}

// Is claims the InvalidArgument class.
func (e *InvalidCheckpointIntervalError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidTwinIntervalError reports a non-positive twin comparison interval:
// a shadow that is never compared can never catch a corruption.
type InvalidTwinIntervalError struct {
	// Interval is the rejected period.
	Interval int
}

// Error implements the error interface.
func (e *InvalidTwinIntervalError) Error() string {
	return fmt.Sprintf("engine: twin interval %d must be positive", e.Interval)
}

// Is claims the InvalidArgument class.
func (e *InvalidTwinIntervalError) Is(target error) bool { return target == xerr.InvalidArgument }

// InvalidSDCCheckIntervalError reports a negative silent-data-corruption
// check interval: 0 disables the detector, positive values set its period,
// and nothing else is meaningful.
type InvalidSDCCheckIntervalError struct {
	// Interval is the rejected period.
	Interval int
}

// Error implements the error interface.
func (e *InvalidSDCCheckIntervalError) Error() string {
	return fmt.Sprintf("engine: SDC check interval %d invalid: use a positive period, or 0 to disable the check", e.Interval)
}

// Is claims the InvalidArgument class.
func (e *InvalidSDCCheckIntervalError) Is(target error) bool { return target == xerr.InvalidArgument }

// Validate checks the configuration after WithDefaults normalization:
// preconditioner and method names must be known, the SSOR relaxation factor
// must satisfy 0 < omega < 2 (rejected with *InvalidOmegaError otherwise),
// phi must lie in [0, ranks), and SPCG requires the split-capable "ic0"
// preconditioner. It is called at job submission and at session preparation,
// so invalid configurations are rejected at the door rather than failing
// (or silently diverging) mid-solve. Every rejection carries the
// xerr.InvalidArgument class (the typed errors claim it themselves; the
// plain ones are classified at this boundary).
func (c Config) Validate() error {
	return xerr.Ensure(xerr.InvalidArgument, c.validate())
}

func (c Config) validate() error {
	c = c.WithDefaults()
	switch c.Preconditioner {
	case PrecondIdentity, PrecondJacobi, PrecondBlockJacobiILU, PrecondBlockJacobiChol, PrecondSSOR, PrecondIC0:
	default:
		return fmt.Errorf("engine: unknown preconditioner %q", c.Preconditioner)
	}
	if c.Preconditioner == PrecondSSOR && (c.SSOROmega <= 0 || c.SSOROmega >= 2) {
		return &InvalidOmegaError{Omega: c.SSOROmega}
	}
	switch c.Method {
	case MethodAuto, MethodPCG, MethodESRPCG, MethodSPCG:
	default:
		return fmt.Errorf("engine: unknown method %q", c.Method)
	}
	if c.Method == MethodSPCG && c.Preconditioner != PrecondIC0 {
		return fmt.Errorf("engine: method %q needs the split preconditioner %q, got %q",
			MethodSPCG, PrecondIC0, c.Preconditioner)
	}
	switch c.Transport {
	case TransportChan, TransportFast, TransportChaos, TransportNet:
	default:
		return fmt.Errorf("engine: unknown transport %q (want %q, %q, %q or %q)",
			c.Transport, TransportChan, TransportFast, TransportChaos, TransportNet)
	}
	switch c.Strategy {
	case StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin:
	default:
		return &InvalidStrategyError{Strategy: c.Strategy}
	}
	if c.CheckpointInterval <= 0 {
		// WithDefaults resolves the unset zero to the default period, so
		// only explicitly negative intervals reach this check.
		return &InvalidCheckpointIntervalError{Interval: c.CheckpointInterval}
	}
	if c.TwinInterval <= 0 {
		// Same shape as the checkpoint interval: only explicit negatives
		// survive WithDefaults.
		return &InvalidTwinIntervalError{Interval: c.TwinInterval}
	}
	if c.SDCCheckInterval < 0 {
		return &InvalidSDCCheckIntervalError{Interval: c.SDCCheckInterval}
	}
	if c.SDCCheckInterval > 0 && (c.Method == MethodPCG || c.Method == MethodSPCG) {
		return fmt.Errorf("engine: method %q does not run the silent-data-corruption check (use %q or %q)",
			c.Method, MethodAuto, MethodESRPCG)
	}
	if c.Method == MethodSPCG && c.Strategy != StrategyESR {
		return fmt.Errorf("engine: method %q supports only the %q recovery strategy, got %q",
			MethodSPCG, StrategyESR, c.Strategy)
	}
	if c.Method == MethodPCG && !c.Schedule.Empty() {
		return fmt.Errorf("engine: method %q cannot honour a failure schedule (use %q)",
			MethodPCG, MethodESRPCG)
	}
	if c.Method == MethodPCG && c.Strategy != StrategyESR {
		// The reference solver runs no protection at all; accepting it on a
		// C/R or restart config would silently skip the strategy the caller
		// asked for (and mislabel the strategy gauges).
		return fmt.Errorf("engine: method %q is the strategy-free reference solver; use %q or %q with strategy %q",
			MethodPCG, MethodAuto, MethodESRPCG, c.Strategy)
	}
	if c.Threads < ThreadsAuto {
		return &InvalidThreadsError{Threads: c.Threads}
	}
	if c.BlockSize < 1 || c.BlockSize > MaxBlockSize {
		// WithDefaults resolves the unset zero to DefaultBlockSize, so only
		// explicitly negative or oversized widths reach this check.
		return &InvalidBlockSizeError{BlockSize: c.BlockSize}
	}
	if c.Phi < 0 || c.Phi >= c.Ranks {
		return fmt.Errorf("engine: phi %d out of range [0, %d)", c.Phi, c.Ranks)
	}
	return nil
}
