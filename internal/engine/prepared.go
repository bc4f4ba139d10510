package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// ErrPreparedClosed reports a Solve on (or racing with) a closed prepared
// session.
var ErrPreparedClosed = xerr.New(xerr.Unavailable, "engine: prepared solver session is closed")

// maxCholBlock bounds the per-rank block size of the dense block-Jacobi
// Cholesky preconditioner for network-submitted jobs (enforced by the
// engine's job path, not by Prepare itself, so trusted in-process callers
// stay unrestricted): 4096 caps the dense factors at 2 x 4096^2 floats
// (256 MiB: L plus its cache-friendly transpose) per rank and the
// factorization at ~1.1e10 flops, keeping a worker responsive. Larger
// blocks must use the sparse ILU(0)/IC(0) factorizations.
const maxCholBlock = 4096

// SolveOpts are the per-solve parameters of a prepared session: everything
// that does NOT affect the expensive setup (partitioning, distributed
// symbolic phase, preconditioner factorization) and can therefore differ
// between solves sharing one Prepared. Zero-valued tolerances defer to the
// core.Options defaults, exactly as in Config.
type SolveOpts struct {
	// Tol is the relative residual reduction target (<= 0: core default).
	Tol float64
	// MaxIter bounds the PCG iterations (<= 0: core default).
	MaxIter int
	// LocalTol is the reconstruction subsystem tolerance (<= 0: core
	// default).
	LocalTol float64
	// Schedule injects node failures into this solve (nil: failure-free).
	// A non-empty schedule needs a session prepared with phi >= 1.
	Schedule *faults.Schedule
	// Method overrides the session's solver method for this solve ("" keeps
	// the session's; MethodSPCG still needs the session prepared with the
	// split-capable "ic0" preconditioner).
	Method string
	// Progress observes this solve from rank 0 (may be nil).
	Progress core.ProgressFunc
	// Tracer observes this solve's per-iteration phase timings, residual
	// trajectory and recovery episodes from rank 0 (may be nil). Tracing is
	// observer-only: traced solves are bit-identical to untraced ones.
	Tracer core.Tracer
	// OnFailure, when non-nil, is installed on every rank: called at the
	// failure poll point after a fresh scheduled event fires, before
	// recovery. The multi-process net fabric uses it to turn the scheduled
	// event into a real process death (see core.Options.OnFailure).
	OnFailure func(j int, victims []int)
	// Resume, when non-nil, makes the solve join a failure episode already
	// in progress instead of starting from iteration 0 — the entry path of
	// a replacement OS process (see core.Options.Resume). Only meaningful
	// with SolveOn.
	Resume *core.EpisodeResume
}

// preparedRank is the per-rank state built once and reused by every solve:
// the distributed matrix template (symbolic halo plan, redundancy protocol,
// localised CSR) and the factored preconditioner. The matrix template is
// Forked per solve; the preconditioner applications are read-only and are
// shared by concurrent solves directly.
type preparedRank struct {
	m      *distmat.Matrix
	prec   core.Precond
	split  precond.Split // non-nil only for PrecondIC0
	lo, hi int
}

// Prepared is a reusable solver session over one system matrix: the
// partition, the per-rank distributed matrix state, and the factored block
// preconditioners are built exactly once, after which any number of
// concurrent Solve calls run against them, each on its own short-lived rank
// runtime. Close tears the session down and aborts in-flight solves.
type Prepared struct {
	cfg  Config // normalized; Ranks clamped to the matrix size
	part partition.Partition
	n    int
	prep []preparedRank

	// statsSink, when non-nil, receives the per-runtime transport-stats
	// delta after every prepare/solve run (the engine aggregates these for
	// its health gauges). Set before the session is shared; never mutated
	// afterwards.
	statsSink func(name string, delta cluster.TransportStats)
	// strategySink, when non-nil, receives the per-solve strategy-stats
	// delta after every solve, keyed by the session's strategy name (the
	// engine aggregates these for its health gauges, mirroring statsSink).
	strategySink func(name string, delta core.StrategyStats)
	// matvecSink, when non-nil, is installed as the MatVec phase observer on
	// every solve's per-rank matrix forks (the engine feeds it into the
	// per-transport SpMV phase histograms). Set before the session is
	// shared, like the sinks above.
	matvecSink func(distmat.MatVecTimings)

	mu     sync.Mutex
	closed bool
	active map[*cluster.Runtime]struct{}
	wg     sync.WaitGroup
	tstats cluster.TransportStats // aggregated across prepare + all solves
	sstats core.StrategyStats     // aggregated across all solves
}

// newTransport builds a fresh transport instance for one runtime of this
// session. cfg is validated, so the name resolves; the impossible error
// path falls back to the default fabric.
func (ps *Prepared) newTransport() cluster.Transport {
	t, err := cluster.NewTransport(ps.cfg.Transport, ps.cfg.TransportSeed)
	if err != nil {
		return cluster.NewChanTransport()
	}
	return t
}

// recordStats folds one finished runtime's transport counters into the
// session aggregate and the engine's sink. When the session owns the
// runtime's transport (it built it for this run), ownsTransport also
// releases transport resources — the net fabric's listener and connections.
func (ps *Prepared) recordStats(rt *cluster.Runtime, ownsTransport bool) {
	delta := rt.Transport().Stats()
	ps.mu.Lock()
	ps.tstats.Add(delta)
	ps.mu.Unlock()
	if ps.statsSink != nil {
		ps.statsSink(rt.Transport().Name(), delta)
	}
	if ownsTransport {
		if c, ok := rt.Transport().(io.Closer); ok {
			c.Close()
		}
	}
}

// TransportName returns the session's communication-fabric name.
func (ps *Prepared) TransportName() string { return ps.cfg.Transport }

// TransportStats returns the session's aggregated transport counters
// (preparation plus every solve so far).
func (ps *Prepared) TransportStats() cluster.TransportStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.tstats
}

// StrategyName returns the session's failure-recovery strategy name.
func (ps *Prepared) StrategyName() string { return ps.cfg.Strategy }

// StrategyStats returns the session's aggregated recovery-strategy counters
// (every finished solve so far): steady-state protection volumes, recovery
// episodes, redone iterations.
func (ps *Prepared) StrategyStats() core.StrategyStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.sstats
}

// newStrategy builds this solve's recovery strategy (and, for the
// checkpoint strategy, its per-solve reliable store, accounting its traffic
// on the solve runtime's counters). One strategy instance is shared by the
// solve's ranks; concurrent solves never share checkpoint state.
func (ps *Prepared) newStrategy(rt *cluster.Runtime) (core.Strategy, *checkpoint.Store) {
	switch ps.cfg.Strategy {
	case StrategyCheckpoint:
		store := checkpoint.NewStore(rt.Counters())
		return checkpoint.NewStrategy(store, ps.cfg.CheckpointInterval), store
	case StrategyRestart:
		return core.NewRestartStrategy(), nil
	case StrategyTwin:
		return core.NewTwinStrategy(ps.cfg.TwinInterval), nil
	default:
		return core.NewESRStrategy(), nil
	}
}

// recordStrategyStats folds one solve's per-column results into the
// session aggregate and the engine's sink. Each finished column counts as
// one solve; a failed column still carries observables — most importantly
// the SDC counters of a detection-classified failure (the whole point of
// the detector is that the failure is visible) — and Solves stays 0 for
// it. The runtime's protection traffic counters are folded once, and only
// for a solve that ran to the end (ran).
func (ps *Prepared) recordStrategyStats(results []core.Result, colErrs []error, ran bool, store *checkpoint.Store, rt *cluster.Runtime) {
	var delta core.StrategyStats
	for c, res := range results {
		if ran && colErrs[c] == nil {
			delta.Add(core.StatsFromResult(res))
			continue
		}
		delta.SDCInjected += int64(res.SDCInjected)
		delta.SDCDetected += int64(res.SDCDetected)
		delta.SDCCorrected += int64(res.SDCCorrected)
	}
	if ran {
		if store != nil {
			delta.Checkpoints = int64(store.Checkpoints())
		}
		ctrs := rt.Counters()
		delta.CheckpointFloats = ctrs.Floats(cluster.CatCheckpoint)
		delta.RedundancyFloats = ctrs.Floats(cluster.CatRedundancy)
		delta.RecoveryFloats = ctrs.Floats(cluster.CatRecovery)
	}
	if delta == (core.StrategyStats{}) {
		return
	}
	ps.mu.Lock()
	ps.sstats.Add(delta)
	ps.mu.Unlock()
	if ps.strategySink != nil {
		ps.strategySink(ps.cfg.Strategy, delta)
	}
}

// Prepare builds a reusable solver session for the SPD system matrix a. Only
// the preparation-scoped fields of cfg are used (Ranks, Phi, Preconditioner,
// SSOROmega, Method, Transport, TransportSeed, Strategy,
// CheckpointInterval); per-solve parameters (tolerances, schedule, progress)
// are passed to each Solve. The caller must Close the session when done.
func Prepare(a *sparse.CSR, cfg Config) (*Prepared, error) {
	return PrepareContext(context.Background(), a, cfg)
}

// PrepareContext is Prepare with cancellation: cancelling ctx aborts the
// build's runtime (ranks blocked in the symbolic exchange are woken; a rank
// inside a factorization finishes its kernel first, as in a solve) and
// returns the context's cause.
func PrepareContext(ctx context.Context, a *sparse.CSR, cfg Config) (*Prepared, error) {
	cfg = cfg.WithDefaults()
	if a == nil || a.Rows <= 0 {
		return nil, fmt.Errorf("esr: nil or empty matrix")
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("esr: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if cfg.Ranks > a.Rows {
		cfg.Ranks = a.Rows
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkRowPtr(a); err != nil {
		return nil, err
	}
	ps := &Prepared{
		cfg:    cfg,
		part:   partition.NewBlockRow(a.Rows, cfg.Ranks),
		n:      a.Rows,
		prep:   make([]preparedRank, cfg.Ranks),
		active: map[*cluster.Runtime]struct{}{},
	}
	// The symbolic phase (halo plan + redundancy protocol) is a distributed
	// exchange, so the build itself runs as an SPMD program on a throwaway
	// runtime; the resulting per-rank state has no reference to it.
	rt := cluster.New(cfg.Ranks, cluster.WithTransport(ps.newTransport()))
	defer ps.recordStats(rt, true)
	err := rt.RunContext(ctx, func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := ps.part.Range(e.Pos)
		block := a.RowBlock(lo, hi)
		// Each rank checks its own rows: the kernels rely on sorted,
		// in-range columns (block-Jacobi ILU(0) splits each row at its
		// diagonal).
		if err := block.CheckValid(); err != nil {
			err = invalidRows(err, lo)
			rt.Abort(err)
			return err
		}
		m, err := distmat.NewMatrix(e, block, ps.part, cfg.Phi, 0)
		if err != nil {
			// Wake peers blocked in the symbolic exchange instead of
			// deadlocking the build.
			rt.Abort(err)
			return err
		}
		// Cancellation point before the expensive factorization: a rank that
		// already knows the build is aborted must not start an O(block^3)
		// kernel it cannot be woken from.
		if err := c.Check(); err != nil {
			return err
		}
		// Bake the session's kernel thread cap into the per-rank state: the
		// SpMV row chunks and the Jacobi applications honour it on every
		// solve (forks inherit it).
		m.SetThreads(cfg.Threads)
		prec, split, err := buildPrecond(cfg, m)
		if err != nil {
			rt.Abort(err)
			return err
		}
		// Ranks write disjoint slots; no lock needed.
		ps.prep[c.Rank()] = preparedRank{m: m, prec: prec, split: split, lo: lo, hi: hi}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// checkRowPtr validates the row-pointer frame of a (storage lengths and
// monotone row pointers), which the per-rank RowBlock slicing relies on.
// The rows themselves are checked per rank inside the build.
func checkRowPtr(a *sparse.CSR) error {
	if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
		return xerr.Newf(xerr.InvalidArgument,
			"esr: matrix storage inconsistent: %d rows, %d row pointers, %d columns, %d values",
			a.Rows, len(a.RowPtr), len(a.Col), len(a.Val))
	}
	for i, p := range a.RowPtr[1:] {
		if p < a.RowPtr[i] {
			return xerr.Newf(xerr.InvalidArgument, "esr: matrix row %d: RowPtr not monotone", i)
		}
	}
	return nil
}

// invalidRows classes a structural defect found in the row block starting
// at global row lo, naming the row in global numbering.
func invalidRows(err error, lo int) error {
	var re *sparse.RowError
	if errors.As(err, &re) {
		return xerr.Newf(xerr.InvalidArgument, "esr: matrix row %d: %s", lo+re.Row, re.Reason)
	}
	return xerr.Newf(xerr.InvalidArgument, "esr: invalid matrix: %w", err)
}

// N returns the dimension of the prepared system.
func (ps *Prepared) N() int { return ps.n }

// Ranks returns the number of simulated compute nodes of the session.
func (ps *Prepared) Ranks() int { return ps.cfg.Ranks }

// Phi returns the redundancy level of the session.
func (ps *Prepared) Phi() int { return ps.cfg.Phi }

// Config returns the normalized preparation-scoped configuration.
func (ps *Prepared) Config() Config { return ps.cfg }

// Threads returns the session's per-rank kernel thread cap (0 = automatic).
func (ps *Prepared) Threads() int { return ps.cfg.Threads }

// SetOverlap toggles the communication-hiding SpMV schedule of every solve
// on this session (on by default). The phased reference schedule computes
// the local block only after the halo receives are drained; both schedules
// are bit-identical on every transport, so the knob exists for A/B
// benchmarking and equality testing, not correctness. It must not be called
// concurrently with Solve.
func (ps *Prepared) SetOverlap(on bool) {
	for i := range ps.prep {
		ps.prep[i].m.SetOverlap(on)
	}
}

// method resolves the solver for one Solve call: a per-solve override wins
// over the session's configured method. PCG and ESR-PCG both run the
// resilient driver under the session's strategy — the reference PCG is the
// ESR strategy with an empty schedule — so MethodAuto resolves to ESR-PCG;
// MethodPCG only adds its guardrails. Errors report an unknown name, SPCG
// on a session without the split factors, or PCG with a failure schedule.
func (ps *Prepared) method(opts SolveOpts) (string, error) {
	m := opts.Method
	if m == MethodAuto {
		m = ps.cfg.Method
	}
	switch m {
	case MethodAuto, MethodESRPCG:
		return MethodESRPCG, nil
	case MethodPCG:
		if !opts.Schedule.Empty() {
			return "", fmt.Errorf("engine: method %q cannot honour a failure schedule (use %q)",
				MethodPCG, MethodESRPCG)
		}
		if ps.cfg.Strategy != StrategyESR {
			return "", fmt.Errorf("engine: method %q is the strategy-free reference solver; use %q or %q with strategy %q",
				MethodPCG, MethodAuto, MethodESRPCG, ps.cfg.Strategy)
		}
		return m, nil
	case MethodSPCG:
		if ps.cfg.Strategy != StrategyESR {
			return "", fmt.Errorf("engine: method %q supports only the %q recovery strategy, got %q",
				MethodSPCG, StrategyESR, ps.cfg.Strategy)
		}
		if ps.prep[0].split == nil {
			return "", fmt.Errorf("engine: method %q needs a session prepared with the split preconditioner %q, got %q",
				MethodSPCG, PrecondIC0, ps.cfg.Preconditioner)
		}
		return m, nil
	}
	return "", fmt.Errorf("engine: unknown method %q", m)
}

// Solve runs one solve of A x = b against the prepared state. It is safe to
// call concurrently: every call forks the per-rank matrix templates (fresh
// scratch and retention state) onto its own rank runtime, while the
// partition and the factored preconditioners are shared read-only.
// Cancelling ctx aborts only this solve's runtime.
func (ps *Prepared) Solve(ctx context.Context, b []float64, opts SolveOpts) (Solution, error) {
	return ps.solveOne(ctx, nil, nil, b, opts)
}

// SolveOn runs one solve on a caller-provided runtime, driving only the
// given rank subset locally — the multi-process entry point: every process
// of a net-fabric fleet prepares the same session (preparation is
// deterministic and transport-independent), builds one shared mesh runtime,
// and calls SolveOn with the ranks it hosts. The remaining rank slots are
// driven by peer processes over the wire. The runtime's size must match the
// session's rank count; the caller owns the runtime and its transport
// lifecycle. The returned Solution carries the result only on the process
// hosting rank 0 (a zero Solution elsewhere).
func (ps *Prepared) SolveOn(ctx context.Context, rt *cluster.Runtime, localRanks []int, b []float64, opts SolveOpts) (Solution, error) {
	if rt == nil {
		return Solution{}, fmt.Errorf("esr: SolveOn needs a runtime")
	}
	if rt.Size() != ps.cfg.Ranks {
		return Solution{}, fmt.Errorf("esr: runtime has %d ranks, session prepared for %d", rt.Size(), ps.cfg.Ranks)
	}
	if len(localRanks) == 0 {
		return Solution{}, fmt.Errorf("esr: SolveOn needs at least one local rank")
	}
	if len(localRanks) < ps.cfg.Ranks && ps.cfg.Strategy != StrategyESR {
		// The rollback strategies keep cross-rank state (the checkpoint
		// store) inside one process; they cannot span a mesh.
		return Solution{}, fmt.Errorf("esr: multi-process solves support only the %q strategy, got %q", StrategyESR, ps.cfg.Strategy)
	}
	return ps.solveOne(ctx, rt, localRanks, b, opts)
}

// solveOne is the k = 1 case of solve: the column's error is the solve's.
func (ps *Prepared) solveOne(ctx context.Context, rt *cluster.Runtime, localRanks []int, b []float64, opts SolveOpts) (Solution, error) {
	sols, colErrs, err := ps.solve(ctx, rt, localRanks, [][]float64{b}, opts)
	if err == nil {
		err = colErrs[0]
	}
	if err != nil {
		return Solution{}, err
	}
	return sols[0], nil
}

// solve is the one solve body of Solve, SolveOn and SolveBlock: the k
// systems A x[c] = bs[c] in lockstep through core.ResilientPCG (SPCG solves
// its single column through core.SPCG). A nil rt means "build a fresh
// single-process runtime over the session's transport" (which the solve
// then owns); localRanks nil means all ranks. colErrs[c] reports a
// per-column failure (its Solution is zero-valued); the error return is a
// global failure aborting every column.
func (ps *Prepared) solve(ctx context.Context, rt *cluster.Runtime, localRanks []int, bs [][]float64, opts SolveOpts) ([]Solution, []error, error) {
	k := len(bs)
	for _, b := range bs {
		if len(b) != ps.n {
			return nil, nil, fmt.Errorf("esr: rhs length %d != %d", len(b), ps.n)
		}
	}
	if err := opts.Schedule.Validate(ps.cfg.Ranks); err != nil {
		return nil, nil, err
	}
	if opts.Schedule.HasFailStop() && ps.cfg.Phi == 0 &&
		(ps.cfg.Strategy == StrategyESR || ps.cfg.Strategy == StrategyTwin) {
		// Reject at the door instead of spinning up the runtime just for
		// the solver's own resilience-enabled check to fail. Only ESR
		// reconstruction needs redundancy (the twin strategy delegates its
		// fail-stop recovery to it); checkpoint/restart roll back without
		// it, and corruption-only schedules never lose a node's state.
		return nil, nil, fmt.Errorf("esr: a fail-stop schedule needs a session prepared with phi >= 1 (or a checkpoint/restart recovery strategy)")
	}
	method, err := ps.method(opts)
	if err != nil {
		return nil, nil, err
	}
	if k > 1 && !ps.CanSolveBlock(opts) {
		return nil, nil, fmt.Errorf("esr: blocked solves exclude the %q strategy, corruption events, %q and Resume (use looped per-column solves)",
			StrategyTwin, MethodSPCG)
	}

	ownsRT := rt == nil
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, nil, ErrPreparedClosed
	}
	if ownsRT {
		rt = cluster.New(ps.cfg.Ranks, cluster.WithTransport(ps.newTransport()))
	}
	ps.active[rt] = struct{}{}
	ps.wg.Add(1)
	ps.mu.Unlock()
	defer func() {
		ps.recordStats(rt, ownsRT)
		ps.mu.Lock()
		delete(ps.active, rt)
		ps.mu.Unlock()
		ps.wg.Done()
	}()
	if localRanks == nil {
		localRanks = make([]int, ps.cfg.Ranks)
		for r := range localRanks {
			localRanks[r] = r
		}
	}
	hasRank0 := false
	for _, r := range localRanks {
		if r == 0 {
			hasRank0 = true
		}
	}

	strat, store := ps.newStrategy(rt)

	var mu sync.Mutex
	sols := make([]Solution, k)
	results := make([]core.Result, k)
	colErrs := make([]error, k)
	err = rt.RunLocalContext(ctx, localRanks, func(c *cluster.Comm) error {
		pr := ps.prep[c.Rank()]
		e := distmat.WorldEnv(c)
		m := pr.m.Fork()
		if ps.matvecSink != nil {
			// Every rank reports its own SpMV phase split: the overlap
			// efficiency is a per-rank quantity.
			m.SetMatVecObserver(ps.matvecSink)
		}
		B := make([]distmat.Vector, k)
		X := make([]distmat.Vector, k)
		for col := range bs {
			B[col] = distmat.Vector{P: ps.part, Pos: e.Pos, Local: append([]float64(nil), bs[col][pr.lo:pr.hi]...)}
			X[col] = distmat.NewVector(ps.part, e.Pos)
		}
		copts := core.Options{Tol: opts.Tol, MaxIter: opts.MaxIter, LocalTol: opts.LocalTol,
			Threads: ps.cfg.Threads, Ctx: ctx, SDCCheck: ps.cfg.SDCCheckInterval,
			OnFailure: opts.OnFailure, Resume: opts.Resume}
		if c.Rank() == 0 {
			copts.Progress = opts.Progress
			copts.Tracer = opts.Tracer
		}
		var res []core.Result
		var errsPerCol []error
		var err error
		if method == MethodSPCG {
			res, errsPerCol = make([]core.Result, 1), make([]error, 1)
			res[0], err = core.SPCG(e, m, X[0], B[0], pr.split, copts, opts.Schedule)
		} else {
			res, errsPerCol, err = core.ResilientPCG(e, m, X, B, pr.prec, copts, opts.Schedule, strat)
		}
		if c.Rank() == localRanks[0] {
			// Column errors derive from deterministic fused-allreduce
			// results, so every rank holds the same ones; results are
			// kept even for a failed solve, whose SDC counters still count.
			mu.Lock()
			copy(results, res)
			copy(colErrs, errsPerCol)
			mu.Unlock()
		}
		if err != nil {
			return err
		}
		for col := range bs {
			// The gather is collective; every rank skips the same failed
			// columns.
			if errsPerCol[col] != nil {
				continue
			}
			full, err := distmat.Gather(e, X[col])
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				sols[col] = Solution{X: full, Result: res[col]}
				mu.Unlock()
			}
		}
		return nil
	})
	if errors.Is(err, ErrPreparedClosed) {
		// Close aborted this solve's runtime; surface the session error,
		// not a wrapped per-rank abort.
		return nil, nil, ErrPreparedClosed
	}
	if hasRank0 {
		// The result-borne strategy stats live on rank 0's Results;
		// processes hosting only other ranks would fold in zeros.
		ps.recordStrategyStats(results, colErrs, err == nil, store, rt)
	}
	if err != nil {
		return nil, nil, err
	}
	return sols, colErrs, nil
}

// Close tears the session down: subsequent Solve calls fail with
// ErrPreparedClosed, in-flight solves are aborted (their runtimes wake ranks
// blocked in communication and the Solve calls return ErrPreparedClosed),
// and Close blocks until they have unwound. Idempotent.
func (ps *Prepared) Close() {
	ps.mu.Lock()
	if !ps.closed {
		ps.closed = true
		for rt := range ps.active {
			rt.Abort(ErrPreparedClosed)
		}
	}
	ps.mu.Unlock()
	ps.wg.Wait()
}

// buildPrecond factors the node-local block preconditioner for the rank's
// matrix. The returned Split is non-nil only for PrecondIC0 (the SPCG
// method's requirement).
func buildPrecond(cfg Config, m *distmat.Matrix) (core.Precond, precond.Split, error) {
	switch cfg.Preconditioner {
	case PrecondIdentity:
		return core.IdentityPrecond(), nil, nil
	case PrecondJacobi:
		j, err := precond.NewJacobi(m.Diag())
		if err != nil {
			return nil, nil, err
		}
		// Jacobi is the one preconditioner whose application legally
		// parallelizes (element-wise); it honours the session's thread cap.
		j.SetThreads(cfg.Threads)
		return core.LocalPrecond{P: j}, nil, nil
	case PrecondBlockJacobiILU:
		f, err := precond.NewBlockJacobiILU(m.OwnBlock())
		if err != nil {
			return nil, nil, err
		}
		return core.LocalPrecond{P: f}, nil, nil
	case PrecondBlockJacobiChol:
		ch, err := precond.NewBlockJacobiChol(m.OwnBlock())
		if err != nil {
			return nil, nil, err
		}
		return core.LocalPrecond{P: ch}, nil, nil
	case PrecondSSOR:
		s, err := precond.NewSSOR(m.OwnBlock(), cfg.SSOROmega)
		if err != nil {
			return nil, nil, err
		}
		return core.LocalPrecond{P: s}, nil, nil
	case PrecondIC0:
		s, err := precond.NewIC0Split(m.OwnBlock())
		if err != nil {
			return nil, nil, err
		}
		return core.LocalPrecond{P: s}, s, nil
	}
	return nil, nil, fmt.Errorf("esr: unknown preconditioner %q", cfg.Preconditioner)
}
