package esr

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.5*math.Cos(float64(i)*0.21)
	}
	return b
}

func TestSolvePlain(t *testing.T) {
	a := Poisson2D(24, 24)
	b := rhs(a.Rows)
	sol, err := Solve(a, b, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if rn := ResidualNorm(a, sol.X, b); rn > 1e-7*sol.Result.InitialResidual+1e-12 {
		t.Fatalf("residual %g too large", rn)
	}
}

func TestSolveWithFailures(t *testing.T) {
	a := Elasticity3D(5, 5, 4, 15, 3)
	b := rhs(a.Rows)
	sched := NewSchedule(Simultaneous(4, 1, 2, 3))
	sol, err := Solve(a, b, Config{Ranks: 8, Phi: 3, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if got := sol.Result.TotalReconstructions(); got != 1 {
		t.Fatalf("reconstructions = %d", got)
	}
	ref, err := Solve(a, b, Config{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sol.X {
		if math.Abs(sol.X[i]-ref.X[i]) > 1e-5*(1+math.Abs(ref.X[i])) {
			t.Fatalf("solution differs at %d", i)
		}
	}
}

func TestSolveOverlapping(t *testing.T) {
	a := Poisson3D(8, 8, 8)
	b := rhs(a.Rows)
	sched := NewSchedule(
		Simultaneous(3, 2),
		Overlapping(3, 3, 5),
	)
	sol, err := Solve(a, b, Config{Ranks: 8, Phi: 2, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if sol.Result.Reconstructions[0].Restarts < 1 {
		t.Fatal("expected a reconstruction restart")
	}
}

func TestSolvePreconditioners(t *testing.T) {
	a := Poisson2D(20, 20)
	b := rhs(a.Rows)
	for _, name := range []string{
		PrecondIdentity, PrecondJacobi, PrecondBlockJacobiILU,
		PrecondBlockJacobiChol, PrecondSSOR,
	} {
		sol, err := Solve(a, b, Config{Ranks: 4, Preconditioner: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Result.Converged {
			t.Fatalf("%s did not converge", name)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	a := Poisson2D(6, 6)
	if _, err := Solve(a, rhs(10), Config{}); err == nil {
		t.Fatal("rhs length mismatch must fail")
	}
	if _, err := Solve(a, rhs(a.Rows), Config{Ranks: 4, Phi: 4}); err == nil {
		t.Fatal("phi >= ranks must fail")
	}
	if _, err := Solve(a, rhs(a.Rows), Config{Preconditioner: "nope"}); err == nil {
		t.Fatal("unknown preconditioner must fail")
	}
	rect := NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := Solve(rect.ToCSR(), rhs(2), Config{}); err == nil {
		t.Fatal("non-square must fail")
	}
}

// TestSolveRejectsMalformedMatrix pins structural validation at prepare:
// a row with unsorted columns, an out-of-range column or a backwards row
// pointer is an invalid-argument error naming the row, not a panicking rank
// or a silent non-converged solve.
func TestSolveRejectsMalformedMatrix(t *testing.T) {
	// The 4x4 SPD tridiagonal matrix tridiag(-1, 4, -1).
	tridiag := func() *Matrix {
		return &Matrix{
			Rows: 4, Cols: 4,
			RowPtr: []int{0, 2, 5, 8, 10},
			Col:    []int{0, 1, 0, 1, 2, 1, 2, 3, 2, 3},
			Val:    []float64{4, -1, -1, 4, -1, -1, 4, -1, -1, 4},
		}
	}
	if _, err := Solve(tridiag(), rhs(4), Config{Ranks: 2}); err != nil {
		t.Fatalf("well-formed matrix: %v", err)
	}
	unsorted := tridiag()
	copy(unsorted.Col[2:5], []int{2, 1, 0}) // row 1 lists columns {2,1,0}
	copy(unsorted.Val[2:5], []float64{-1, 4, -1})
	outOfRange := tridiag()
	outOfRange.Col[9] = 7 // row 3 lists columns {2,7}
	backwards := tridiag()
	backwards.RowPtr[2] = 1 // row 1 ends before it starts
	for _, tc := range []struct {
		name string
		a    *Matrix
		row  string
	}{
		{"unsorted columns", unsorted, "row 1:"},
		{"out-of-range column", outOfRange, "row 3:"},
		{"non-monotone row pointers", backwards, "row 1:"},
	} {
		for _, ranks := range []int{1, 2, 4} {
			_, err := Solve(tc.a, rhs(4), Config{Ranks: ranks})
			if !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("%s, %d ranks: want an invalid-argument error, got %v", tc.name, ranks, err)
			}
			if !strings.Contains(err.Error(), tc.row) {
				t.Fatalf("%s, %d ranks: error %q does not name %q", tc.name, ranks, err, tc.row)
			}
			if _, err := NewSolver(tc.a, WithRanks(ranks)); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("%s, %d ranks: NewSolver: want an invalid-argument error, got %v", tc.name, ranks, err)
			}
		}
	}
}

func TestSolveDataLossSurfaced(t *testing.T) {
	// phi=1 cannot cover two adjacent failures on a narrow band.
	a := Poisson2D(16, 16)
	sched := NewSchedule(Simultaneous(2, 1, 2))
	_, err := Solve(a, rhs(a.Rows), Config{Ranks: 6, Phi: 1, Schedule: sched})
	if err == nil {
		t.Fatal("expected data loss")
	}
	var dl *DataLossError
	if !errors.As(err, &dl) {
		t.Fatalf("want DataLossError, got %v", err)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	a := CircuitLike(100, 3, 0.3, 1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("round trip changed nnz")
	}
}

func TestRanksClampedToRows(t *testing.T) {
	a := Poisson2D(2, 2) // 4 rows
	sol, err := Solve(a, rhs(4), Config{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
}
