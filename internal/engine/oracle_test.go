package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// oracleCase is one generated blocked-vs-solo comparison.
type oracleCase struct {
	strategy string
	k        int
	sched    string // "none", "phi", "overlap" or "after-converged"
	sdc      int
}

func (c oracleCase) String() string {
	return fmt.Sprintf("%s k=%d sched=%s sdc=%d", c.strategy, c.k, c.sched, c.sdc)
}

// eigenMixRHS returns a right-hand side made of three eigenvectors of the
// nx x nx Poisson2D matrix with distinct eigenvalues: under the (scaled
// identity) Jacobi preconditioner CG lands it in about three iterations,
// long before a random right-hand side.
func eigenMixRHS(nx int) []float64 {
	b := make([]float64, nx*nx)
	h := math.Pi / float64(nx+1)
	for _, m := range []int{1, 2, 3} {
		for j := 0; j < nx; j++ {
			for i := 0; i < nx; i++ {
				b[j*nx+i] += math.Sin(float64(m*(i+1))*h) * math.Sin(float64(m*(j+1))*h)
			}
		}
	}
	return b
}

// TestQuickOneDriverOracle is the generated oracle of the one k-wide driver:
// for random cases over the strategy (esr, checkpoint, restart), the block
// width (1, 2, 5, 8), the schedule (none, phi simultaneous victims, an
// overlapping failure at a recovery phase, a failure after column 0 has
// converged) and the SDC check interval (0, 5), column c of a blocked solve
// must equal a solo Solve of column c bit for bit, with the same
// Iterations, WorkIterations and reconstruction episodes. The seed is
// printed on failure; -short runs one case per strategy and schedule.
func TestQuickOneDriverOracle(t *testing.T) {
	const nx, ranks, phi = 12, 4, 2
	a := matgen.Poisson2D(nx, nx)
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))

	strategies := []string{StrategyESR, StrategyCheckpoint, StrategyRestart}
	widths := []int{1, 2, 5, 8}
	scheds := []string{"none", "phi", "overlap", "after-converged"}
	var cases []oracleCase
	for _, s := range strategies {
		for _, sc := range scheds {
			if testing.Short() {
				cases = append(cases, oracleCase{s, widths[rng.Intn(len(widths))], sc, 5 * rng.Intn(2)})
				continue
			}
			for _, k := range widths {
				for _, sdc := range []int{0, 5} {
					cases = append(cases, oracleCase{s, k, sc, sdc})
				}
			}
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })

	sessions := map[string]*Prepared{}
	session := func(c oracleCase) *Prepared {
		key := fmt.Sprintf("%s/%d", c.strategy, c.sdc)
		if ps := sessions[key]; ps != nil {
			return ps
		}
		ps, err := Prepare(a, Config{Ranks: ranks, Phi: phi, Preconditioner: PrecondJacobi,
			Strategy: c.strategy, CheckpointInterval: 4, SDCCheckInterval: c.sdc})
		if err != nil {
			t.Fatalf("seed %d: prepare %s: %v", seed, key, err)
		}
		sessions[key] = ps
		return ps
	}
	defer func() {
		for _, ps := range sessions {
			ps.Close()
		}
	}()
	ctx := context.Background()

	for n, c := range cases {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, case %d (%v): %s", seed, n, c, fmt.Sprintf(format, args...))
		}
		ps := session(c)
		bs := make([][]float64, c.k)
		bs[0] = eigenMixRHS(nx)
		for col := 1; col < c.k; col++ {
			bs[col] = make([]float64, a.Rows)
			for i := range bs[col] {
				bs[col][i] = rng.NormFloat64()
			}
		}
		victims := rng.Perm(ranks)[:phi]
		var sched *faults.Schedule
		switch c.sched {
		case "phi":
			sched = faults.NewSchedule(faults.Simultaneous(rng.Intn(9), victims...))
		case "overlap":
			j := rng.Intn(9)
			sched = faults.NewSchedule(faults.Simultaneous(j, victims[0]),
				faults.Overlapping(j, 1+rng.Intn(core.NumRecoveryPhases), victims[1]))
		case "after-converged":
			first, err := ps.Solve(ctx, bs[0], SolveOpts{})
			if err != nil {
				fail("failure-free column 0: %v", err)
			}
			sched = faults.NewSchedule(faults.Simultaneous(first.Result.Iterations+1+rng.Intn(3), victims...))
		}
		opts := SolveOpts{Schedule: sched}

		sols, colErrs, err := ps.SolveBlock(ctx, bs, opts)
		if err != nil {
			fail("blocked: %v", err)
		}
		for col := range bs {
			solo, serr := ps.Solve(ctx, bs[col], opts)
			if (serr == nil) != (colErrs[col] == nil) {
				fail("column %d: blocked error %v, solo error %v", col, colErrs[col], serr)
			}
			if serr != nil {
				continue
			}
			got, want := sols[col].Result, solo.Result
			if !want.Converged || got.Converged != want.Converged ||
				got.Iterations != want.Iterations || got.WorkIterations != want.WorkIterations {
				fail("column %d: blocked converged=%v iters=%d work=%d, solo converged=%v iters=%d work=%d",
					col, got.Converged, got.Iterations, got.WorkIterations, want.Converged, want.Iterations, want.WorkIterations)
			}
			if math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual) ||
				math.Float64bits(got.TrueResidual) != math.Float64bits(want.TrueResidual) {
				fail("column %d: residuals blocked %x/%x, solo %x/%x", col,
					got.FinalResidual, got.TrueResidual, want.FinalResidual, want.TrueResidual)
			}
			if len(got.Reconstructions) != len(want.Reconstructions) {
				fail("column %d: %d reconstructions, solo %d", col, len(got.Reconstructions), len(want.Reconstructions))
			}
			for i, rec := range got.Reconstructions {
				if w := want.Reconstructions[i]; rec.Iteration != w.Iteration || rec.Restarts != w.Restarts ||
					fmt.Sprint(rec.FailedRanks) != fmt.Sprint(w.FailedRanks) {
					fail("column %d: episode %d blocked %+v, solo %+v", col, i, rec, w)
				}
			}
			for i := range solo.X {
				if math.Float64bits(sols[col].X[i]) != math.Float64bits(solo.X[i]) {
					fail("column %d: X[%d] blocked %x, solo %x", col, i, sols[col].X[i], solo.X[i])
				}
			}
		}
		if c.sched == "after-converged" && c.k > 1 {
			// The case must exercise what it names: column 0 landed before
			// the failure, another column lived through it.
			if len(sols[0].Result.Reconstructions) != 0 || len(sols[1].Result.Reconstructions) == 0 {
				fail("column 0 saw %d episodes, column 1 saw %d", len(sols[0].Result.Reconstructions),
					len(sols[1].Result.Reconstructions))
			}
		}
	}
}

// TestSolveBlockTraceRelResidual pins the observables of a traced blocked
// solve: every iteration reports the active column with the largest
// relative residual — its residual and relative residual bit for bit as
// that column's solo trace reports them — and never a zero relative
// residual before the last iteration.
func TestSolveBlockTraceRelResidual(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	ps, err := Prepare(a, Config{Ranks: 4, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ctx := context.Background()
	traced := func(bs [][]float64) ([]core.IterationTrace, []core.ProgressEvent, []Solution) {
		var its []core.IterationTrace
		var evs []core.ProgressEvent
		tr := traceFunc{
			iter: func(it core.IterationTrace) { its = append(its, it) },
			rec:  func(core.RecoveryTrace) {},
		}
		sols, colErrs, err := ps.SolveBlock(ctx, bs, SolveOpts{Tracer: tr,
			Progress: func(ev core.ProgressEvent) { evs = append(evs, ev) }})
		if err != nil {
			t.Fatal(err)
		}
		for c, ce := range colErrs {
			if ce != nil {
				t.Fatalf("column %d: %v", c, ce)
			}
		}
		return its, evs, sols
	}

	bs := batchRHS(a.Rows, 3)
	bs[1] = eigenMixRHS(16) // lands early, so the reported column changes
	its, evs, sols := traced(bs)
	solo := make([][]core.IterationTrace, len(bs))
	for c := range bs {
		solo[c], _, _ = traced(bs[c : c+1])
	}
	last := 0
	for _, s := range sols {
		last = max(last, s.Result.Iterations)
	}
	if len(its) != last || len(evs) != last {
		t.Fatalf("%d traced iterations and %d events, want %d", len(its), len(evs), last)
	}
	for i, it := range its {
		if i < last-1 && !(it.RelResidual > 0) {
			t.Fatalf("iteration %d: RelResidual %g", it.Iteration, it.RelResidual)
		}
		var want core.IterationTrace
		for c := range bs {
			if i < len(solo[c]) && (want.Iteration == 0 || solo[c][i].RelResidual > want.RelResidual) {
				want = solo[c][i]
			}
		}
		if it.Iteration != want.Iteration ||
			math.Float64bits(it.Residual) != math.Float64bits(want.Residual) ||
			math.Float64bits(it.RelResidual) != math.Float64bits(want.RelResidual) {
			t.Fatalf("iteration %d: traced (%g, %g), want the worst column's (%g, %g)",
				it.Iteration, it.Residual, it.RelResidual, want.Residual, want.RelResidual)
		}
		if ev := evs[i]; ev.Iteration != it.Iteration || ev.Residual != it.Residual || ev.RelResidual != it.RelResidual {
			t.Fatalf("iteration %d: progress event %+v disagrees with trace %+v", it.Iteration, ev, it)
		}
	}
	// At k = 1 the trace is the solo trace: ||r|| / ||r0|| of the column.
	for _, it := range solo[0] {
		if it.RelResidual != it.Residual/sols[0].Result.InitialResidual {
			t.Fatalf("k=1 iteration %d: RelResidual %g != %g / %g", it.Iteration, it.RelResidual,
				it.Residual, sols[0].Result.InitialResidual)
		}
	}
}
