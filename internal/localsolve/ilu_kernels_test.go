package localsolve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rankBlockRanks is the rank count of the block-row partition whose
// diagonal blocks the kernel tests factor: the benchmark's 16-rank layout.
const rankBlockRanks = 16

// rankBlocks caches rankDiagBlocks per catalogue id; the package's tests
// and benchmarks run one at a time.
var rankBlocks = map[string][]*sparse.CSR{}

// rankDiagBlocks returns the diagonal blocks A_{Ii,Ii} of the 16-rank
// block-row partition of catalogue matrix id at small scale: the blocks
// block-Jacobi ILU(0) factorises on each rank.
func rankDiagBlocks(t testing.TB, id string) []*sparse.CSR {
	t.Helper()
	if blocks, ok := rankBlocks[id]; ok {
		return blocks
	}
	a := matgen.ByIDOrDie(id).Build(matgen.ScaleSmall)
	p := partition.NewBlockRow(a.Rows, rankBlockRanks)
	blocks := make([]*sparse.CSR, rankBlockRanks)
	for r := range blocks {
		lo, hi := p.Range(r)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		blocks[r] = a.Submatrix(idx, idx)
	}
	rankBlocks[id] = blocks
	return blocks
}

// kernelColumns returns k right-hand sides of length n. Some are random
// normals; the rest probe IEEE corner cases the sweeps must carry through
// bit for bit: all -0, normals salted with ±0 and ±Inf, normals salted with
// ±0 and NaN, and a single Inf or NaN in an otherwise zero column.
// Infinities and NaNs go in separate columns so that every NaN in a column
// has one bit pattern: when two NaNs of different payloads meet, IEEE 754
// leaves the result's payload to the hardware's operand order, which the
// compiler may pick either way for a commutative operation.
func kernelColumns(rng *rand.Rand, n, k int) [][]float64 {
	infs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	nans := []float64{0, math.Copysign(0, -1), math.NaN()}
	cols := make([][]float64, k)
	for c := range cols {
		col := make([]float64, n)
		switch c % 6 {
		case 0:
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		case 1, 3:
			salt := infs
			if c%6 == 3 {
				salt = nans
			}
			for i := range col {
				col[i] = rng.NormFloat64()
				if rng.Intn(50) == 0 {
					col[i] = salt[rng.Intn(len(salt))]
				}
			}
		case 2:
			for i := range col {
				col[i] = math.Copysign(0, -1)
			}
		case 4:
			col[rng.Intn(n)] = math.Inf(1)
		case 5:
			col[rng.Intn(n)] = math.NaN()
		}
		cols[c] = col
	}
	return cols
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// tileWidths are the SolveK widths the tile tests cover: every width up to
// two 8-tiles plus one, and the widths around the blocked driver's 32.
var tileWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32, 33}

// TestILU0SolveKTileWidthsBitwiseSolve pins SolveK's contract at every
// tile combination (8-wide tiles, the 4-wide tile, single columns): column
// c is bitwise identical to Solve(z[c], r[c]), also when z aliases r and
// when the columns carry signed zeros, infinities and NaNs. The M3 rank
// block has rows with an empty L part, rows with an empty U part and
// diagonal-only rows, so every sweep shape is exercised.
func TestILU0SolveKTileWidthsBitwiseSolve(t *testing.T) {
	a := rankDiagBlocks(t, "M3")[0]
	var emptyL, emptyU, diagOnly bool
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		lower, upper := cols[0] < i, cols[len(cols)-1] > i
		emptyL = emptyL || !lower
		emptyU = emptyU || !upper
		diagOnly = diagOnly || (!lower && !upper)
	}
	if !emptyL || !emptyU || !diagOnly {
		t.Fatalf("M3 block lacks a row shape: empty L %v, empty U %v, diagonal-only %v",
			emptyL, emptyU, diagOnly)
	}
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(12))
	for _, k := range tileWidths {
		r := kernelColumns(rng, n, k)
		z := make([][]float64, k)
		alias := make([][]float64, k)
		for c := range z {
			z[c] = make([]float64, n)
			alias[c] = append([]float64(nil), r[c]...)
		}
		f.SolveK(z, r)
		f.SolveK(alias, alias)
		want := make([]float64, n)
		for c := range r {
			f.Solve(want, r[c])
			if i := sameBits(z[c], want); i >= 0 {
				t.Fatalf("k=%d column %d: SolveK[%d] = %x, Solve = %x", k, c, i,
					math.Float64bits(z[c][i]), math.Float64bits(want[i]))
			}
			if i := sameBits(alias[c], want); i >= 0 {
				t.Fatalf("k=%d column %d aliased: SolveK[%d] = %x, Solve = %x", k, c, i,
					math.Float64bits(alias[c][i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestILU0MatchesReferenceKernels checks the split-storage factor and its
// sweeps against the CSR-layout kernels they replaced (refILU0), bit for
// bit, on every rank block of the 16-rank partition of M5 and M3: the
// factor values, Solve, SolveK and Multiply.
func TestILU0MatchesReferenceKernels(t *testing.T) {
	for _, id := range []string{"M5", "M3"} {
		for rank, a := range rankDiagBlocks(t, id) {
			f, err := NewILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			n := a.Rows
			// Factor: L rows in order, U rows reversed, pivots apart.
			for i := 0; i < n; i++ {
				lo, d, hi := ref.rowPtr[i], ref.diag[i], ref.rowPtr[i+1]
				want := append(append(append([]float64(nil), ref.val[lo:d]...),
					ref.val[d]), ref.val[d+1:hi]...)
				ulo, uhi := f.uPtr[n-1-i], f.uPtr[n-i]
				got := append(append(append([]float64(nil), f.lVal[f.lPtr[i]:f.lPtr[i+1]]...),
					f.piv[i]), f.uVal[ulo:uhi]...)
				if len(got) != len(want) {
					t.Fatalf("%s rank %d row %d: %d factor entries, reference %d", id, rank, i, len(got), len(want))
				}
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("%s rank %d row %d entry %d: factor %x, reference %x", id, rank, i, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
			rng := rand.New(rand.NewSource(int64(rank)))
			const k = 13 // one 8-tile, one 4-tile, one single column
			r := kernelColumns(rng, n, k)
			got, want := make([]float64, n), make([]float64, n)
			for c, rc := range r {
				f.Solve(got, rc)
				ref.Solve(want, rc)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s rank %d column %d: Solve[%d] = %x, reference %x", id, rank, c, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				f.Multiply(got, rc)
				ref.Multiply(want, rc)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s rank %d column %d: Multiply[%d] = %x, reference %x", id, rank, c, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			zs, zr := make([][]float64, k), make([][]float64, k)
			for c := range zs {
				zs[c], zr[c] = make([]float64, n), make([]float64, n)
			}
			f.SolveK(zs, r)
			ref.SolveK(zr, r)
			for c := range zs {
				if i := sameBits(zs[c], zr[c]); i >= 0 {
					t.Fatalf("%s rank %d column %d: SolveK[%d] = %x, reference %x", id, rank, c, i,
						math.Float64bits(zs[c][i]), math.Float64bits(zr[c][i]))
				}
			}
		}
	}
}

// BenchmarkILU0Solve times one forward/backward sweep of the rank-0 block
// of M5 (small) on 16 ranks, the banded system the benchmark solves.
func BenchmarkILU0Solve(b *testing.B) {
	a := rankDiagBlocks(b, "M5")[0]
	f, err := NewILU0(a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(z, r)
	}
}

// TestILU0SolveKConcurrent runs SolveK on one factor from several
// goroutines at once, as concurrent solves of a prepared session do: the
// pooled work blocks must never be shared between two calls.
func TestILU0SolveKConcurrent(t *testing.T) {
	a := matgen.Poisson2D(17, 13)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls, k = 4, 20, 13
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			want := make([]float64, a.Rows)
			for call := 0; call < calls; call++ {
				r := kernelColumns(rng, a.Rows, k)
				z := make([][]float64, k)
				for c := range z {
					z[c] = make([]float64, a.Rows)
				}
				f.SolveK(z, r)
				for c := range r {
					f.Solve(want, r[c])
					if i := sameBits(z[c], want); i >= 0 {
						errs <- fmt.Errorf("goroutine %d call %d column %d: SolveK[%d] = %x, Solve = %x",
							seed, call, c, i, math.Float64bits(z[c][i]), math.Float64bits(want[i]))
						return
					}
				}
			}
			errs <- nil
		}(int64(g))
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
