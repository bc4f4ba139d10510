package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// refRowDotK is the SpMM row kernel the register-tiled rowDotK replaced,
// kept verbatim as a test-only oracle: its k running sums live in out and
// gain one product per stored entry, in order.
func refRowDotK(cols []int, vals []float64, x []float64, out []float64) {
	k := len(out)
	for j := range out {
		out[j] = 0
	}
	vals = vals[:len(cols)]
	for t, c := range cols {
		v := vals[t]
		xr := x[c*k : c*k+k]
		for j, xv := range xr {
			out[j] += v * xv
		}
	}
}

// refMulMat is MulMat on refRowDotK.
func refMulMat(m *sparse.CSR, y, x []float64, k int) {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		refRowDotK(m.Col[lo:hi], m.Val[lo:hi], x, y[i*k:i*k+k])
	}
}

// rowBlocks caches rankRowBlocks per catalogue id; the package's tests and
// benchmarks run one at a time.
var rowBlocks = map[string][]*sparse.CSR{}

// rankRowBlocks returns the row blocks A_{Ii,:} (global columns) of the
// 16-rank block-row partition of catalogue matrix id at small scale: the
// blocks each rank's SpMM runs on.
func rankRowBlocks(t testing.TB, id string) []*sparse.CSR {
	t.Helper()
	if blocks, ok := rowBlocks[id]; ok {
		return blocks
	}
	a := matgen.ByIDOrDie(id).Build(matgen.ScaleSmall)
	p := partition.NewBlockRow(a.Rows, 16)
	blocks := make([]*sparse.CSR, 16)
	for r := range blocks {
		lo, hi := p.Range(r)
		blocks[r] = a.RowBlock(lo, hi)
	}
	rowBlocks[id] = blocks
	return blocks
}

// specialBlock returns a row-major block of k columns of length n: random
// normals, some salted with ±0 and ±Inf, some with ±0 and NaN, and some
// all -0. Infinities and NaNs go in separate columns so that every NaN in
// a column has one bit pattern: when two NaNs of different payloads meet,
// IEEE 754 leaves the result's payload to the hardware's operand order,
// which the compiler may pick either way for a commutative add.
func specialBlock(rng *rand.Rand, n, k int) []float64 {
	infs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	nans := []float64{0, math.Copysign(0, -1), math.NaN()}
	x := make([]float64, n*k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			switch j % 4 {
			case 1:
				if rng.Intn(50) == 0 {
					v = infs[rng.Intn(len(infs))]
				}
			case 2:
				v = math.Copysign(0, -1)
			case 3:
				if rng.Intn(50) == 0 {
					v = nans[rng.Intn(len(nans))]
				}
			}
			x[i*k+j] = v
		}
	}
	return x
}

// firstBitDiff returns the first index where a and b differ in their bit
// patterns, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range b {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMulMatTileWidthsBitwiseMulVec pins the SpMM determinism contract at
// every tile combination (8-wide tiles, the 4-wide tile, single columns):
// column j of every MulMat* variant is bitwise identical to MulVec on
// column j alone, also for signed zeros, infinities and NaNs.
func TestMulMatTileWidthsBitwiseMulVec(t *testing.T) {
	m := rankRowBlocks(t, "M3")[0]
	rows := make([]int, m.Rows)
	for i := range rows {
		rows[i] = i
	}
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32, 33} {
		x := specialBlock(rng, m.Cols, k)
		want := make([][]float64, k)
		col := make([]float64, m.Cols)
		for j := range want {
			for i := range col {
				col[i] = x[i*k+j]
			}
			want[j] = make([]float64, m.Rows)
			m.MulVec(want[j], col)
		}
		check := func(name string, y []float64) {
			t.Helper()
			for j := 0; j < k; j++ {
				for i := 0; i < m.Rows; i++ {
					if math.Float64bits(y[i*k+j]) != math.Float64bits(want[j][i]) {
						t.Fatalf("k=%d %s: column %d row %d = %x, MulVec %x", k, name, j, i,
							math.Float64bits(y[i*k+j]), math.Float64bits(want[j][i]))
					}
				}
			}
		}
		y := make([]float64, m.Rows*k)
		m.MulMat(y, x, k)
		check("MulMat", y)
		m.MulMatPar(y, x, k, 3)
		check("MulMatPar", y)
		m.MulMatScatter(y, x, rows, k)
		check("MulMatScatter", y)
		m.MulMatScatterPar(y, x, rows, k, 3)
		check("MulMatScatterPar", y)
	}
}

// TestMulMatMatchesReferenceKernel checks MulMat against the memory-
// accumulator kernel it replaced, bit for bit, on every rank block of the
// 16-rank partition of M5 and M3.
func TestMulMatMatchesReferenceKernel(t *testing.T) {
	for _, id := range []string{"M5", "M3"} {
		blocks := rankRowBlocks(t, id)
		rng := rand.New(rand.NewSource(5))
		for _, k := range []int{13, 32} {
			x := specialBlock(rng, blocks[0].Cols, k)
			for r, m := range blocks {
				got, want := make([]float64, m.Rows*k), make([]float64, m.Rows*k)
				m.MulMat(got, x, k)
				refMulMat(m, want, x, k)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s rank %d k=%d: MulMat[%d] = %x, reference %x", id, r, k, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkSpMM times MulMat on the rank-0 row block of M5 (small) on 16
// ranks at the esr-banded batch width and the blocked driver's default.
func BenchmarkSpMM(b *testing.B) {
	m := rankRowBlocks(b, "M5")[0]
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{8, 32} {
		x := make([]float64, m.Cols*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, m.Rows*k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulMat(y, x, k)
			}
		})
	}
}
