package localsolve

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// refILU0 is the CSR-layout ILU(0) the split-storage ILU0 replaced, kept
// verbatim as a test-only oracle: the factor is a copy of A's CSR arrays
// updated in place, and the sweeps walk it through rowPtr and diag. The
// split-storage kernels must reproduce its every output bit for bit.
type refILU0 struct {
	n      int
	rowPtr []int
	col    []int
	val    []float64
	diag   []int
}

func newRefILU0(a *sparse.CSR) (*refILU0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("localsolve: ILU0 needs a square matrix")
	}
	n := a.Rows
	f := &refILU0{
		n:      n,
		rowPtr: append([]int(nil), a.RowPtr...),
		col:    append([]int(nil), a.Col...),
		val:    append([]float64(nil), a.Val...),
		diag:   make([]int, n),
	}
	var maxAbs float64
	for _, v := range f.val {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	eps := 1e-12 * (maxAbs + 1)
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if f.col[k] == i {
				f.diag[i] = k
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, fmt.Errorf("localsolve: ILU0 row %d has no diagonal entry", i)
		}
	}
	colPos := make([]int, n)
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colPos[f.col[k]] = k
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			j := f.col[k]
			if j >= i {
				break
			}
			piv := f.val[f.diag[j]]
			if math.Abs(piv) < eps {
				piv = eps
			}
			lij := f.val[k] / piv
			f.val[k] = lij
			for kk := f.diag[j] + 1; kk < f.rowPtr[j+1]; kk++ {
				jj := f.col[kk]
				if p := colPos[jj]; p >= 0 {
					f.val[p] -= lij * f.val[kk]
				}
			}
		}
		if math.Abs(f.val[f.diag[i]]) < eps {
			f.val[f.diag[i]] = eps
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colPos[f.col[k]] = -1
		}
	}
	return f, nil
}

func (f *refILU0) Solve(z, r []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		s := r[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.diag[i] + 1; k < f.rowPtr[i+1]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s / f.val[f.diag[i]]
	}
}

// SolveK is the width-4 fused sweep with a single-column remainder.
func (f *refILU0) SolveK(z, r [][]float64) {
	c := 0
	for ; c+4 <= len(z); c += 4 {
		f.solve4(z[c], z[c+1], z[c+2], z[c+3], r[c], r[c+1], r[c+2], r[c+3])
	}
	for ; c < len(z); c++ {
		f.Solve(z[c], r[c])
	}
}

func (f *refILU0) solve4(z0, z1, z2, z3, r0, r1, r2, r3 []float64) {
	n := f.n
	rowPtr, diag, col, val := f.rowPtr, f.diag, f.col, f.val
	for i := 0; i < n; i++ {
		s0, s1, s2, s3 := r0[i], r1[i], r2[i], r3[i]
		for p := rowPtr[i]; p < diag[i]; p++ {
			v, j := val[p], col[p]
			s0 -= v * z0[j]
			s1 -= v * z1[j]
			s2 -= v * z2[j]
			s3 -= v * z3[j]
		}
		z0[i], z1[i], z2[i], z3[i] = s0, s1, s2, s3
	}
	for i := n - 1; i >= 0; i-- {
		s0, s1, s2, s3 := z0[i], z1[i], z2[i], z3[i]
		for p := diag[i] + 1; p < rowPtr[i+1]; p++ {
			v, j := val[p], col[p]
			s0 -= v * z0[j]
			s1 -= v * z1[j]
			s2 -= v * z2[j]
			s3 -= v * z3[j]
		}
		d := val[diag[i]]
		z0[i], z1[i], z2[i], z3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

func (f *refILU0) Multiply(y, x []float64) {
	n := f.n
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := f.diag[i]; k < f.rowPtr[i+1]; k++ {
			s += f.val[k] * x[f.col[k]]
		}
		u[i] = s
	}
	for i := 0; i < n; i++ {
		s := u[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s += f.val[k] * u[f.col[k]]
		}
		y[i] = s
	}
}
