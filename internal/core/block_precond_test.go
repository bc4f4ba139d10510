package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestBlockExplicitInversePrecondBitwise exercises the distributed fused
// preconditioner path: with an explicit-inverse preconditioner the blocked
// driver's ApplyBlock fuses the k applications into ONE MatMat halo
// exchange, and a failure runs the generic Alg. 2 lines 5-6 (a k-column
// subsystem solve on P_{If,If}). Every column of the blocked solve must stay
// bitwise identical to a solo solve of that column, with and without a
// failure schedule.
func TestBlockExplicitInversePrecondBitwise(t *testing.T) {
	for _, sched := range []*faults.Schedule{nil, faults.NewSchedule(faults.Simultaneous(3, 1, 2))} {
		t.Run(fmt.Sprintf("events=%d", len(sched.Events())), func(t *testing.T) {
			testBlockExplicitInverse(t, sched)
		})
	}
}

func testBlockExplicitInverse(t *testing.T, sched *faults.Schedule) {
	a := matgen.Poisson2D(12, 10)
	n := a.Rows
	// P: SPD tridiagonal approximate inverse (scaled), as in the solo
	// explicit-inverse test.
	pc := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		pc.Add(i, i, 0.3)
		if i > 0 {
			pc.Add(i, i-1, 0.05)
		}
		if i < n-1 {
			pc.Add(i, i+1, 0.05)
		}
	}
	pm := pc.ToCSR()
	const ranks, k = 4, 3
	cols := func(lo, hi int) [][]float64 {
		bs := make([][]float64, k)
		for c := range bs {
			bs[c] = make([]float64, hi-lo)
			for i := range bs[c] {
				g := lo + i
				bs[c][i] = 1 + 0.5*math.Sin(float64(c+1)*float64(g+1))
			}
		}
		return bs
	}
	newPrecond := func(e *distmat.Env, p partition.Partition) (Precond, error) {
		lo, hi := p.Range(e.Pos)
		pmat, err := distmat.NewMatrix(e, pm.RowBlock(lo, hi), p, 0, 1)
		if err != nil {
			return nil, err
		}
		return ExplicitInvPrecond{P: pmat}, nil
	}

	// Solo reference: one ESRPCG per column.
	solo := make([][]float64, k)
	soloIters := make([]int, k)
	soloRecs := make([]int, k)
	var mu sync.Mutex
	for c := 0; c < k; c++ {
		c := c
		rt := cluster.New(ranks)
		if err := rt.Run(func(cm *cluster.Comm) error {
			e, m, x, _, err := setupProblem(cm, a, 2)
			if err != nil {
				return err
			}
			lo, hi := m.P.Range(e.Pos)
			b := distmat.Vector{P: m.P, Pos: e.Pos, Local: cols(lo, hi)[c]}
			pr, err := newPrecond(e, m.P)
			if err != nil {
				return err
			}
			res, err := solveOne(e, m, x, b, pr, Options{Tol: 1e-9}, sched)
			if err != nil {
				return err
			}
			full, err := distmat.Gather(e, x)
			if err != nil {
				return err
			}
			if cm.Rank() == 0 {
				mu.Lock()
				solo[c] = full
				soloIters[c] = res.Iterations
				soloRecs[c] = len(res.Reconstructions)
				mu.Unlock()
			}
			return nil
		}); err != nil {
			t.Fatalf("solo column %d: %v", c, err)
		}
	}

	// One blocked solve of all k columns.
	blockedX := make([][]float64, k)
	blockedIters := make([]int, k)
	blockedRecs := make([]int, k)
	rt := cluster.New(ranks)
	if err := rt.Run(func(cm *cluster.Comm) error {
		e, m, _, _, err := setupProblem(cm, a, 2)
		if err != nil {
			return err
		}
		lo, hi := m.P.Range(e.Pos)
		locals := cols(lo, hi)
		bs := make([]distmat.Vector, k)
		xs := make([]distmat.Vector, k)
		for c := 0; c < k; c++ {
			bs[c] = distmat.Vector{P: m.P, Pos: e.Pos, Local: locals[c]}
			xs[c] = distmat.NewVector(m.P, e.Pos)
		}
		pr, err := newPrecond(e, m.P)
		if err != nil {
			return err
		}
		res, colErrs, err := ResilientPCG(e, m, xs, bs, pr, Options{Tol: 1e-9}, sched, nil)
		if err != nil {
			return err
		}
		for c, ce := range colErrs {
			if ce != nil {
				t.Errorf("column %d: %v", c, ce)
			}
		}
		for c := 0; c < k; c++ {
			full, err := distmat.Gather(e, xs[c])
			if err != nil {
				return err
			}
			if cm.Rank() == 0 {
				mu.Lock()
				blockedX[c] = full
				blockedIters[c] = res[c].Iterations
				blockedRecs[c] = len(res[c].Reconstructions)
				mu.Unlock()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for c := 0; c < k; c++ {
		if blockedRecs[c] != soloRecs[c] || (sched != nil && soloRecs[c] != 1) {
			t.Fatalf("column %d: blocked %d reconstructions, solo %d", c, blockedRecs[c], soloRecs[c])
		}
		if blockedIters[c] != soloIters[c] {
			t.Fatalf("column %d: blocked %d iterations, solo %d", c, blockedIters[c], soloIters[c])
		}
		for i := range solo[c] {
			if blockedX[c][i] != solo[c][i] {
				t.Fatalf("column %d: x[%d] blocked %x, solo %x", c, i, blockedX[c][i], solo[c][i])
			}
		}
		if d := vec.MaxAbsDiff(blockedX[c], solo[c]); d != 0 {
			t.Fatalf("column %d differs by %g", c, d)
		}
	}
}
