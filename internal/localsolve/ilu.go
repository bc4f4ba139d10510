package localsolve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// ILU0 is an incomplete LU factorisation with zero fill-in: L (unit lower)
// and U share the sparsity pattern of A. This is the approximate local
// solver the paper uses for the reconstruction subsystem (Sec. 6).
//
// The factor is stored split, in the order the sweeps read it: the strictly
// lower rows in row order (lPtr/lCol/lVal), the strictly upper rows in
// reverse row order (uPtr/uCol/uVal: reverse position q holds row n-1-q),
// and the pivots U_ii in piv. Within a row the entries keep A's ascending
// column order, and column indices are local int32. The forward and the
// backward sweep therefore each stream one array front to back, and a
// stored entry costs 12 bytes instead of 16.
//
// Determinism contract: every sweep applies, per column, the operation
// sequence of the textbook CSR sweeps — the row's products subtracted (or,
// in Multiply, added) in ascending column order, then the division by the
// pivot — so the split layout and the register tiling of SolveK change no
// bit of any result.
type ILU0 struct {
	n    int
	lPtr []int
	lCol []int32
	lVal []float64
	uPtr []int
	uCol []int32
	uVal []float64
	piv  []float64
}

// NewILU0 factorises the square CSR matrix a in IKJ order. Rows must hold
// strictly increasing column indices (the CSR invariant CheckValid
// verifies), and every row needs a diagonal entry. Zero or missing pivots
// are replaced by a small multiple of the matrix norm to keep the
// preconditioner defined (standard practice for incomplete factorisations).
func NewILU0(a *sparse.CSR) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("localsolve: ILU0 needs a square matrix")
	}
	n := a.Rows
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("localsolve: ILU0 block of %d rows exceeds int32 columns", n)
	}
	rowPtr, acol, aval := a.RowPtr, a.Col, a.Val
	// Locate the diagonals: they fix each row's L and U lengths.
	lPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		d := lo
		for d < hi && acol[d] < i {
			d++
		}
		if d == hi || acol[d] != i {
			return nil, fmt.Errorf("localsolve: ILU0 row %d has no diagonal entry", i)
		}
		lPtr[i+1] = lPtr[i] + d - lo
	}
	// One pass copies A into the split layout. L and U share one backing
	// array per kind: L fills it from the front, U's rows are placed from
	// the back, so row 0 ends up last.
	nL, nOff := lPtr[n], len(acol)-n
	col := make([]int32, nOff)
	val := make([]float64, nOff)
	f := &ILU0{
		n:    n,
		lPtr: lPtr,
		lCol: col[:nL:nL],
		lVal: val[:nL:nL],
		uPtr: make([]int, n+1),
		uCol: col[nL:],
		uVal: val[nL:],
		piv:  make([]float64, n),
	}
	var maxAbs float64
	q := nOff - nL
	f.uPtr[n] = q
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		d := lo + lPtr[i+1] - lPtr[i]
		dst := lPtr[i]
		for t := lo; t < d; t++ {
			f.lCol[dst], f.lVal[dst] = int32(acol[t]), aval[t]
			dst++
		}
		q -= hi - d - 1
		f.uPtr[n-1-i] = q
		dst = q
		for t := d + 1; t < hi; t++ {
			f.uCol[dst], f.uVal[dst] = int32(acol[t]), aval[t]
			dst++
		}
		f.piv[i] = aval[d]
		for _, v := range aval[lo:hi] {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
			}
		}
	}
	eps := 1e-12 * (maxAbs + 1)
	// Row i is eliminated in a dense work row w; mark[j] == i+1 flags the
	// columns of row i's pattern, so updates outside it are dropped (no
	// fill-in) and the marks never need resetting.
	w := make([]float64, n)
	mark := make([]int32, n)
	for i := 0; i < n; i++ {
		tag := int32(i + 1)
		lc, lv := f.lCol[lPtr[i]:lPtr[i+1]], f.lVal[lPtr[i]:lPtr[i+1]]
		ulo, uhi := f.uPtr[n-1-i], f.uPtr[n-i]
		uc, uv := f.uCol[ulo:uhi], f.uVal[ulo:uhi]
		for t, j := range lc {
			w[j], mark[j] = lv[t], tag
		}
		w[i], mark[i] = f.piv[i], tag
		for t, j := range uc {
			w[j], mark[j] = uv[t], tag
		}
		for t, j := range lc {
			piv := f.piv[j]
			if math.Abs(piv) < eps {
				piv = eps
			}
			lij := w[j] / piv
			lv[t] = lij
			// Update the remainder of row i with row j of U.
			jlo, jhi := f.uPtr[n-1-int(j)], f.uPtr[n-int(j)]
			jv := f.uVal[jlo:jhi]
			for tt, jj := range f.uCol[jlo:jhi] {
				if mark[jj] == tag {
					w[jj] -= lij * jv[tt]
				}
			}
		}
		d := w[i]
		if math.Abs(d) < eps {
			d = eps
		}
		f.piv[i] = d
		for t, j := range uc {
			uv[t] = w[j]
		}
	}
	return f, nil
}

// Solve computes z such that (LU) z = r: a forward substitution with the
// unit lower factor followed by a backward substitution with U. z may alias
// r.
func (f *ILU0) Solve(z, r []float64) {
	n := f.n
	if len(z) != n || len(r) != n {
		panic("localsolve: ILU0.Solve dimension mismatch")
	}
	lPtr, lCol, lVal := f.lPtr, f.lCol, f.lVal
	uPtr, uCol, uVal, piv := f.uPtr, f.uCol, f.uVal, f.piv[:n]
	// L y = r (unit diagonal)
	for i := 0; i < n; i++ {
		s := r[i]
		lo, hi := lPtr[i], lPtr[i+1]
		vals := lVal[lo:hi]
		for t, j := range lCol[lo:hi] {
			s -= vals[t] * z[j]
		}
		z[i] = s
	}
	// U x = y
	for q := 0; q < n; q++ {
		i := n - 1 - q
		s := z[i]
		lo, hi := uPtr[q], uPtr[q+1]
		vals := uVal[lo:hi]
		for t, j := range uCol[lo:hi] {
			s -= vals[t] * z[j]
		}
		z[i] = s / piv[i]
	}
}

// SolveK computes z[c] such that (LU) z[c] = r[c] for every column, with
// one pass over the factor per tile of columns: 8-wide tiles, then one
// 4-wide tile, then single columns. A tile is packed row by row into work
// blocks (row i's values of the tile's columns side by side), swept in
// place and unpacked, so a stored entry costs one load of the factor and
// contiguous loads of the blocks, and the tile's running sums stay in
// registers. Tiling only regroups independent columns — for each column c
// the arithmetic is the exact operation sequence of Solve — so column c of
// SolveK is bitwise identical to Solve(z[c], r[c]). z[c] may alias r[c].
func (f *ILU0) SolveK(z, r [][]float64) {
	k := len(z)
	if k != len(r) {
		panic("localsolve: ILU0.SolveK column count mismatch")
	}
	n := f.n
	for c := 0; c < k; c++ {
		if len(z[c]) != n || len(r[c]) != n {
			panic("localsolve: ILU0.SolveK dimension mismatch")
		}
	}
	c := 0
	if k >= 4 {
		w := getTile(n)
		for ; c+8 <= k; c += 8 {
			f.solve8(z[c:c+8], r[c:c+8], w)
		}
		if c+4 <= k {
			f.solve4(z[c:c+4], r[c:c+4], w)
			c += 4
		}
		tilePool.Put(w)
	}
	for ; c < k; c++ {
		f.Solve(z[c], r[c])
	}
}

// tile is SolveK's work area: the packed columns of a tile, lanes 0-3 in
// lo and lanes 4-7 in hi. Two half-width blocks, not one 8-wide block: each
// has its own bounds check, which splits an 8-wide loop body in two, so
// that at most four products wait for their sums at a time. The Go compiler
// moves a loop's carried updates to the end of their block, and eight sums
// plus eight pending products exceed the fifteen SSE registers it
// allocates on amd64; the spilled sums then cost a store and a reload on
// every stored entry.
type tile struct {
	lo, hi [][4]float64
}

// tilePool recycles tiles across calls; a prepared session may run several
// solves on one factor at once, so the tile cannot live in the factor.
var tilePool sync.Pool

// getTile returns a tile of at least n rows.
func getTile(n int) *tile {
	if w, ok := tilePool.Get().(*tile); ok && len(w.lo) >= n {
		return w
	}
	return &tile{lo: make([][4]float64, n), hi: make([][4]float64, n)}
}

// solve8 is the 8-wide tile of SolveK.
func (f *ILU0) solve8(z, r [][]float64, w *tile) {
	n := f.n
	a, b := w.lo[:n], w.hi[:n]
	pack4(a, r[:4])
	pack4(b, r[4:8])
	lower8(a, b, f.lPtr, f.lCol, f.lVal)
	upper8(a, b, f.uPtr, f.uCol, f.uVal, f.piv)
	unpack4(z[:4], a)
	unpack4(z[4:8], b)
}

// solve4 is the 4-wide tile of SolveK.
func (f *ILU0) solve4(z, r [][]float64, w *tile) {
	a := w.lo[:f.n]
	pack4(a, r)
	lower4(a, f.lPtr, f.lCol, f.lVal)
	upper4(a, f.uPtr, f.uCol, f.uVal, f.piv)
	unpack4(z, a)
}

// pack4 copies four columns into the rows of a half-width block.
func pack4(w [][4]float64, r [][]float64) {
	n := len(w)
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	for i := range w {
		w[i] = [4]float64{r0[i], r1[i], r2[i], r3[i]}
	}
}

// unpack4 copies the rows of a half-width block out to four columns.
func unpack4(z [][]float64, w [][4]float64) {
	n := len(w)
	z0, z1, z2, z3 := z[0][:n], z[1][:n], z[2][:n], z[3][:n]
	for i, wi := range w {
		z0[i], z1[i], z2[i], z3[i] = wi[0], wi[1], wi[2], wi[3]
	}
}

// lower8 solves L y = b (unit diagonal) in place for the eight columns
// packed in a and b.
func lower8(a, b [][4]float64, ptr []int, col []int32, val []float64) {
	for i := range a {
		ai, bi := &a[i], &b[i]
		s0, s1, s2, s3 := ai[0], ai[1], ai[2], ai[3]
		s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3]
		lo, hi := ptr[i], ptr[i+1]
		vals := val[lo:hi]
		for t, j := range col[lo:hi] {
			v, aj := vals[t], &a[j]
			s0 -= v * aj[0]
			s1 -= v * aj[1]
			s2 -= v * aj[2]
			s3 -= v * aj[3]
			bj := &b[j]
			s4 -= v * bj[0]
			s5 -= v * bj[1]
			s6 -= v * bj[2]
			s7 -= v * bj[3]
		}
		*ai = [4]float64{s0, s1, s2, s3}
		*bi = [4]float64{s4, s5, s6, s7}
	}
}

// upper8 solves U x = y in place for the eight columns packed in a and b;
// U's rows are stored in reverse order.
func upper8(a, b [][4]float64, ptr []int, col []int32, val, piv []float64) {
	n := len(a)
	for q := range a {
		i := n - 1 - q
		ai, bi := &a[i], &b[i]
		s0, s1, s2, s3 := ai[0], ai[1], ai[2], ai[3]
		s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3]
		lo, hi := ptr[q], ptr[q+1]
		vals := val[lo:hi]
		for t, j := range col[lo:hi] {
			v, aj := vals[t], &a[j]
			s0 -= v * aj[0]
			s1 -= v * aj[1]
			s2 -= v * aj[2]
			s3 -= v * aj[3]
			bj := &b[j]
			s4 -= v * bj[0]
			s5 -= v * bj[1]
			s6 -= v * bj[2]
			s7 -= v * bj[3]
		}
		d := piv[i]
		*ai = [4]float64{s0 / d, s1 / d, s2 / d, s3 / d}
		*bi = [4]float64{s4 / d, s5 / d, s6 / d, s7 / d}
	}
}

// lower4 solves L y = b (unit diagonal) in place for four packed columns.
func lower4(w [][4]float64, ptr []int, col []int32, val []float64) {
	for i := range w {
		wi := &w[i]
		s0, s1, s2, s3 := wi[0], wi[1], wi[2], wi[3]
		lo, hi := ptr[i], ptr[i+1]
		vals := val[lo:hi]
		for t, j := range col[lo:hi] {
			v, wj := vals[t], &w[j]
			s0 -= v * wj[0]
			s1 -= v * wj[1]
			s2 -= v * wj[2]
			s3 -= v * wj[3]
		}
		*wi = [4]float64{s0, s1, s2, s3}
	}
}

// upper4 solves U x = y in place for four packed columns.
func upper4(w [][4]float64, ptr []int, col []int32, val, piv []float64) {
	n := len(w)
	for q := range w {
		i := n - 1 - q
		wi := &w[i]
		s0, s1, s2, s3 := wi[0], wi[1], wi[2], wi[3]
		lo, hi := ptr[q], ptr[q+1]
		vals := val[lo:hi]
		for t, j := range col[lo:hi] {
			v, wj := vals[t], &w[j]
			s0 -= v * wj[0]
			s1 -= v * wj[1]
			s2 -= v * wj[2]
			s3 -= v * wj[3]
		}
		d := piv[i]
		*wi = [4]float64{s0 / d, s1 / d, s2 / d, s3 / d}
	}
}

// Multiply computes y = L U x, the action of the preconditioner M = LU
// itself (needed by the ESR reconstruction variant that applies M rather
// than M^{-1}).
func (f *ILU0) Multiply(y, x []float64) {
	n := f.n
	if len(y) != n || len(x) != n {
		panic("localsolve: ILU0.Multiply dimension mismatch")
	}
	uPtr, uCol, uVal, piv := f.uPtr, f.uCol, f.uVal, f.piv[:n]
	// u = U x: the pivot's product first, then the row's strictly upper
	// entries, as a CSR row walk from the diagonal would add them.
	u := make([]float64, n)
	for q := 0; q < n; q++ {
		i := n - 1 - q
		var s float64
		s += piv[i] * x[i]
		lo, hi := uPtr[q], uPtr[q+1]
		vals := uVal[lo:hi]
		for t, j := range uCol[lo:hi] {
			s += vals[t] * x[j]
		}
		u[i] = s
	}
	// y = L u (unit diagonal)
	lPtr, lCol, lVal := f.lPtr, f.lCol, f.lVal
	for i := 0; i < n; i++ {
		s := u[i]
		lo, hi := lPtr[i], lPtr[i+1]
		vals := lVal[lo:hi]
		for t, j := range lCol[lo:hi] {
			s += vals[t] * u[j]
		}
		y[i] = s
	}
}

// IC0 is an incomplete Cholesky factorisation with zero fill-in of an SPD
// matrix: A ~= L L^T with L restricted to the lower-triangular pattern of A.
// Used as the split preconditioner M = L L^T for the SPCG variant.
type IC0 struct {
	n      int
	rowPtr []int // lower-triangle CSR (including diagonal)
	col    []int
	val    []float64
	diag   []int
}

// NewIC0 factorises the SPD CSR matrix a. Non-positive pivots are lifted to
// a small positive value (shifted IC), keeping the factor usable as a
// preconditioner.
func NewIC0(a *sparse.CSR) (*IC0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("localsolve: IC0 needs a square matrix")
	}
	n := a.Rows
	f := &IC0{n: n, rowPtr: make([]int, n+1), diag: make([]int, n)}
	// Extract the lower triangle pattern (columns sorted).
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		hasDiag := false
		for t, j := range cols {
			if j > i {
				break
			}
			f.col = append(f.col, j)
			f.val = append(f.val, vals[t])
			if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("localsolve: IC0 row %d has no diagonal entry", i)
		}
		f.rowPtr[i+1] = len(f.col)
		f.diag[i] = len(f.col) - 1
	}
	var maxAbs float64
	for _, v := range f.val {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	eps := 1e-10 * (maxAbs + 1)
	// Row-oriented up-looking IC(0).
	colStart := make([]int, n) // scratch: position of column j in row i
	for j := range colStart {
		colStart[j] = -1
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colStart[f.col[k]] = k
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			j := f.col[k]
			// s = a_ij - sum_{t<j} L_it L_jt over the shared pattern.
			s := f.val[k]
			// iterate over row j's entries with column < j
			for kj := f.rowPtr[j]; kj < f.diag[j]; kj++ {
				t := f.col[kj]
				if p := colStart[t]; p >= 0 && p < k {
					s -= f.val[p] * f.val[kj]
				}
			}
			if j < i {
				d := f.val[f.diag[j]]
				if math.Abs(d) < eps {
					d = eps
				}
				f.val[k] = s / d
			} else { // j == i
				if s <= eps {
					s = eps
				}
				f.val[k] = math.Sqrt(s)
			}
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colStart[f.col[k]] = -1
		}
	}
	return f, nil
}

// SolveL solves L y = b by forward substitution.
func (f *IC0) SolveL(y, b []float64) {
	for i := 0; i < f.n; i++ {
		s := b[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * y[f.col[k]]
		}
		y[i] = s / f.val[f.diag[i]]
	}
}

// SolveLT solves L^T x = b by backward substitution.
func (f *IC0) SolveLT(x, b []float64) {
	n := f.n
	copy(x, b)
	for i := n - 1; i >= 0; i-- {
		x[i] /= f.val[f.diag[i]]
		xi := x[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			x[f.col[k]] -= f.val[k] * xi
		}
	}
}

// Solve computes z = (L L^T)^{-1} r.
func (f *IC0) Solve(z, r []float64) {
	y := make([]float64, f.n)
	f.SolveL(y, r)
	f.SolveLT(z, y)
}

// MulL computes y = L x.
func (f *IC0) MulL(y, x []float64) {
	for i := 0; i < f.n; i++ {
		var s float64
		for k := f.rowPtr[i]; k <= f.diag[i]; k++ {
			s += f.val[k] * x[f.col[k]]
		}
		y[i] = s
	}
}

// MulLT computes y = L^T x.
func (f *IC0) MulLT(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < f.n; i++ {
		xi := x[i]
		for k := f.rowPtr[i]; k <= f.diag[i]; k++ {
			y[f.col[k]] += f.val[k] * xi
		}
	}
}

// Multiply computes y = L L^T x (the action of M itself).
func (f *IC0) Multiply(y, x []float64) {
	u := make([]float64, f.n)
	f.MulLT(u, x)
	f.MulL(y, u)
}
