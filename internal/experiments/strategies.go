package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/xerr"
)

// StrategyMeasurement is one protected solve's observables under a recovery
// strategy, including the Sec. 4.2-style traffic accounting that the plain
// Measurement omits.
type StrategyMeasurement struct {
	Measurement
	// WorkIterations counts executed iterations including redone ones.
	WorkIterations int
	// Episodes counts recovery episodes.
	Episodes int
	// Checkpoints counts complete coordinated checkpoints.
	Checkpoints int
	// RedundancyFloats is the extra ESR element volume (cluster.CatRedundancy).
	RedundancyFloats int64
	// RecoveryFloats is the reconstruction traffic (cluster.CatRecovery).
	RecoveryFloats int64
	// CheckpointFloats is the reliable-storage volume (cluster.CatCheckpoint).
	CheckpointFloats int64
	// SDCInjected/SDCDetected/SDCCorrected count silent-data-corruption
	// injections, detections and twin forward repairs; SDCLatency is the
	// summed detection latency in iterations.
	SDCInjected  int
	SDCDetected  int
	SDCCorrected int
	SDCLatency   int
	// SDCFailed reports that the solve was classified as failed by the
	// drift detector (the detection-only outcome of strategies without a
	// repair path); the measurement's counters remain valid.
	SDCFailed bool
}

// OverheadFloats is the steady-state protection volume of the run: the
// redundant SpMV copies for ESR, the reliable-storage traffic for C/R.
func (m StrategyMeasurement) OverheadFloats() int64 {
	return m.RedundancyFloats + m.CheckpointFloats
}

// SolveStrategyOnce runs one distributed solve of A x = b protected by the
// named recovery strategy (core.StrategyESR / StrategyCheckpoint /
// StrategyRestart / StrategyTwin), through the same core.ResilientPCG driver
// the engine uses, and returns the rank-0 measurement with the per-category
// traffic volumes. interval is the checkpoint period (or, for twin, the
// comparison period; 0 selects the default); phi is the ESR redundancy level
// (0 for the rollback strategies). sdcCheck, when > 0, arms the periodic
// true-residual drift check; a solve classified as failed by it returns with
// SDCFailed set and a nil error — the detection itself is the measurement.
func SolveStrategyOnce(a *sparse.CSR, ranks, phi int, sched *faults.Schedule, strategy string, interval, sdcCheck int, tol, localTol float64) (StrategyMeasurement, error) {
	rt := cluster.New(ranks)
	var strat core.Strategy
	var store *checkpoint.Store
	switch strategy {
	case core.StrategyESR:
		strat = core.NewESRStrategy()
	case core.StrategyCheckpoint:
		store = checkpoint.NewStore(rt.Counters())
		strat = checkpoint.NewStrategy(store, interval)
	case core.StrategyRestart:
		strat = core.NewRestartStrategy()
	case core.StrategyTwin:
		strat = core.NewTwinStrategy(interval)
	default:
		return StrategyMeasurement{}, fmt.Errorf("experiments: unknown strategy %q", strategy)
	}
	p := partition.NewBlockRow(a.Rows, ranks)
	var mu sync.Mutex
	var meas StrategyMeasurement
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		bj, err := precond.NewJacobi(m.Diag())
		if err != nil {
			return err
		}
		prec := core.LocalPrecond{P: bj}
		b := distmat.Vector{P: p, Pos: e.Pos, Local: rhsFor(lo, hi)}
		x := distmat.NewVector(p, e.Pos)
		opts := core.Options{Tol: tol, LocalTol: localTol, SDCCheck: sdcCheck}
		rs, errs, err := core.ResilientPCG(e, m, []distmat.Vector{x}, []distmat.Vector{b}, prec, opts, sched, strat)
		if err == nil {
			err = errs[0]
		}
		res := rs[0]
		if c.Rank() == 0 {
			// Captured even when the solve errored: a drift-detection
			// failure still carries the SDC counters this comparison is
			// measuring.
			mu.Lock()
			meas = StrategyMeasurement{
				Measurement: Measurement{
					Runtime:         res.SolveTime,
					ReconstructTime: res.ReconstructTime,
					Iterations:      res.Iterations,
					Delta:           res.Delta,
					Converged:       res.Converged,
				},
				WorkIterations: res.WorkIterations,
				Episodes:       len(res.Reconstructions),
				SDCInjected:    res.SDCInjected,
				SDCDetected:    res.SDCDetected,
				SDCCorrected:   res.SDCCorrected,
				SDCLatency:     res.SDCLatency,
			}
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		if errors.Is(err, xerr.DataLoss) && meas.SDCDetected > 0 {
			// The armed drift check refused to converge wrong: that is the
			// intended detection-only outcome, not a measurement failure.
			meas.SDCFailed = true
		} else {
			return meas, err
		}
	}
	ctrs := rt.Counters()
	meas.RedundancyFloats = ctrs.Floats(cluster.CatRedundancy)
	meas.RecoveryFloats = ctrs.Floats(cluster.CatRecovery)
	meas.CheckpointFloats = ctrs.Floats(cluster.CatCheckpoint)
	if store != nil {
		meas.Checkpoints = store.Checkpoints()
		// The rollback restores are recovery cost, not steady-state
		// overhead: move them from the checkpoint volume to the recovery
		// volume so the columns compare like with like.
		loaded := store.LoadedFloats()
		meas.RecoveryFloats += loaded
		meas.CheckpointFloats -= loaded
	}
	return meas, nil
}

// StrategyCell aggregates the runs of one recovery strategy on one matrix:
// its steady-state overhead (failure-free, vs the unprotected reference t0)
// and its recovery cost under the failure schedule.
type StrategyCell struct {
	// Strategy is the wire name; Interval is the checkpoint period (0 when
	// not applicable); Phi is the ESR redundancy level (0 otherwise).
	Strategy string
	Interval int
	Phi      int
	// OverheadPct is the failure-free runtime overhead vs t0, in percent.
	OverheadPct float64
	// OverheadFloats is the failure-free steady-state protection volume
	// (redundant copies for ESR, reliable-storage saves for C/R).
	OverheadFloats int64
	// WithFailurePct is the total runtime overhead vs t0 with the failure
	// schedule injected, in percent (mean over reps).
	WithFailurePct float64
	// RecoveryPct is the recovery-episode time vs t0, in percent (mean).
	RecoveryPct float64
	// RedoneIters is the mean number of iterations redone after rollbacks
	// (0 for ESR, which resumes at the failure iteration).
	RedoneIters float64
	// RecoveryFloats is the recovery-episode traffic of the failure runs
	// (reconstruction gathers for ESR, checkpoint restores for C/R).
	RecoveryFloats int64
	// SDCDetected/SDCCorrected are the mean detected and repaired corruption
	// counts of the bit-flip runs, and SDCLatency the mean detection latency
	// in iterations. The twin strategy detects through its shadow comparison
	// and repairs forward; the others run the periodic true-residual drift
	// check in detection-only mode.
	SDCDetected  float64 `json:"sdc_detected"`
	SDCCorrected float64 `json:"sdc_corrected"`
	SDCLatency   float64 `json:"sdc_latency_iters"`
	// SDCFailed reports that the bit-flip runs ended classified as failed —
	// the intended detection-only outcome for strategies that cannot repair
	// corruption (the safe alternative to silently converging wrong).
	SDCFailed bool `json:"sdc_failed"`
	// Converged reports whether every run met the tolerance.
	Converged bool
}

// StrategyRow is one matrix's strategy comparison.
type StrategyRow struct {
	ID string
	// T0 is the mean unprotected reference runtime in seconds; RefIters its
	// iteration count.
	T0       float64
	RefIters int
	// FailAt and Failures describe the injected schedule: Failures
	// contiguous ranks from rank 0 at iteration FailAt.
	FailAt, Failures int
	Cells            []StrategyCell
}

// StrategyTable runs the head-to-head comparison the paper argues for
// (Sec. 1.2, 2.2): exact state reconstruction versus checkpoint/restart
// versus cold restart, on the same matrices, right-hand side and failure
// schedule, reporting steady-state overhead and recovery cost side by side
// in both wall-clock and float-volume terms. failures selects the batch
// size (psi = phi contiguous ranks at 50% progress); intervals are the C/R
// periods to evaluate (nil selects 10 and 50).
func (cfg Config) StrategyTable(ids []string, failures int, intervals []int) ([]StrategyRow, error) {
	if len(intervals) == 0 {
		intervals = []int{10, 50}
	}
	entries, err := selectEntries(ids)
	if err != nil {
		return nil, err
	}
	var rows []StrategyRow
	for _, e := range entries {
		a := e.Build(cfg.Scale)
		row, err := cfg.strategyRow(e.ID, a, failures, intervals)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (cfg Config) strategyRow(id string, a *sparse.CSR, failures int, intervals []int) (StrategyRow, error) {
	row := StrategyRow{ID: id, Failures: failures}
	ref, err := cfg.ReferenceRun(a)
	if err != nil {
		return row, err
	}
	row.T0 = stats.Mean(runtimes(ref))
	row.RefIters = ref[0].Iterations
	row.FailAt = faults.IterationAtProgress(0.5, row.RefIters)
	victims := faults.ContiguousRanks(0, failures, cfg.Ranks)
	sched := faults.NewSchedule(faults.Simultaneous(row.FailAt, victims...))

	type variant struct {
		strategy string
		interval int
		phi      int
	}
	variants := []variant{
		{core.StrategyESR, 0, failures},
		// Twin delegates fail-stop recovery to ESR reconstruction, so the
		// failure runs need the same redundancy level.
		{core.StrategyTwin, 0, failures},
	}
	for _, iv := range intervals {
		variants = append(variants, variant{core.StrategyCheckpoint, iv, 0})
	}
	variants = append(variants, variant{core.StrategyRestart, 0, 0})

	for _, v := range variants {
		cell := StrategyCell{Strategy: v.strategy, Interval: v.interval, Phi: v.phi, Converged: true}
		// Failure-free runs: the strategy's steady-state overhead.
		var undT []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			m, err := SolveStrategyOnce(a, cfg.Ranks, v.phi, nil, v.strategy, v.interval, 0, cfg.Tol, cfg.LocalTol)
			if err != nil {
				return row, err
			}
			cell.Converged = cell.Converged && m.Converged
			undT = append(undT, m.Runtime.Seconds())
			if rep == 0 {
				cell.OverheadFloats = m.OverheadFloats()
			}
		}
		cell.OverheadPct = 100 * (stats.Mean(undT) - row.T0) / row.T0
		// Failure runs: the strategy's recovery cost.
		var failT, recT, redo []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			m, err := SolveStrategyOnce(a, cfg.Ranks, v.phi, sched, v.strategy, v.interval, 0, cfg.Tol, cfg.LocalTol)
			if err != nil {
				return row, err
			}
			cell.Converged = cell.Converged && m.Converged
			failT = append(failT, m.Runtime.Seconds())
			recT = append(recT, m.ReconstructTime.Seconds())
			redo = append(redo, float64(m.WorkIterations-m.Iterations))
			if rep == 0 {
				cell.RecoveryFloats = m.RecoveryFloats
			}
		}
		cell.WithFailurePct = 100 * (stats.Mean(failT) - row.T0) / row.T0
		cell.RecoveryPct = 100 * stats.Mean(recT) / row.T0
		cell.RedoneIters = stats.Mean(redo)
		// Corruption runs: one bit flip in the iterate at the kill iteration.
		// The twin strategy detects it through its shadow comparison and
		// repairs forward; the other strategies run the periodic drift check
		// and must classify the solve as failed instead of silently
		// converging wrong. Detection latency is injection-to-detection in
		// iterations.
		corr := faults.NewSchedule(faults.BitFlip(row.FailAt, 0, faults.TargetX, 0, 52))
		sdcCheck := 10
		if v.strategy == core.StrategyTwin {
			sdcCheck = 0 // the shadow comparison is the detector
		}
		var det, fix, lat []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			m, err := SolveStrategyOnce(a, cfg.Ranks, v.phi, corr, v.strategy, v.interval, sdcCheck, cfg.Tol, cfg.LocalTol)
			if err != nil {
				return row, err
			}
			det = append(det, float64(m.SDCDetected))
			fix = append(fix, float64(m.SDCCorrected))
			lat = append(lat, float64(m.SDCLatency))
			cell.SDCFailed = cell.SDCFailed || m.SDCFailed
		}
		cell.SDCDetected = stats.Mean(det)
		cell.SDCCorrected = stats.Mean(fix)
		cell.SDCLatency = stats.Mean(lat)
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// FormatStrategyTable renders the comparison as aligned text.
func FormatStrategyTable(rows []StrategyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy comparison: ESR vs twin vs checkpoint/restart vs cold restart (overheads in %% of reference t0)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s t0 = %8.4fs  iters = %-5d failures: %d ranks at iteration %d\n",
			r.ID, r.T0, r.RefIters, r.Failures, r.FailAt)
		fmt.Fprintf(&b, "      %-22s %10s %14s %12s %12s %10s %14s %8s %8s %8s\n",
			"strategy", "overhead", "extra floats", "w/ failures", "recovery", "redone", "rec floats",
			"sdc det", "sdc fix", "det lat")
		for _, c := range r.Cells {
			name := c.Strategy
			switch {
			case c.Interval > 0:
				name = fmt.Sprintf("%s (every %d)", c.Strategy, c.Interval)
			case c.Phi > 0:
				name = fmt.Sprintf("%s (phi=%d)", c.Strategy, c.Phi)
			}
			mark := ""
			if !c.Converged {
				mark = " !"
			}
			if c.SDCFailed {
				mark += " [sdc: failed-safe]"
			}
			fmt.Fprintf(&b, "      %-22s %9.1f%% %14d %11.1f%% %11.1f%% %10.1f %14d %8.1f %8.1f %8.1f%s\n",
				name, c.OverheadPct, c.OverheadFloats, c.WithFailurePct, c.RecoveryPct,
				c.RedoneIters, c.RecoveryFloats, c.SDCDetected, c.SDCCorrected, c.SDCLatency, mark)
		}
	}
	b.WriteString("'extra floats' is the steady-state protection volume per solve: the redundant\n")
	b.WriteString("search-direction elements ESR piggybacks on the SpMV vs the state C/R ships to\n")
	b.WriteString("reliable storage. 'redone' counts iterations repeated after rollbacks; ESR\n")
	b.WriteString("resumes at the failure iteration, C/R redoes up to a full interval, restart\n")
	b.WriteString("redoes everything. C/R wins only when checkpoints are cheap relative to the\n")
	b.WriteString("iteration volume they protect; see README 'Resilience strategies'.\n")
	b.WriteString("'sdc det/fix/lat' come from bit-flip runs: corruptions detected, repaired\n")
	b.WriteString("forward (twin only), and the injection-to-detection latency in iterations.\n")
	b.WriteString("'[sdc: failed-safe]' marks detection-only strategies that classified the\n")
	b.WriteString("corrupted solve as failed instead of silently converging wrong.\n")
	return b.String()
}
