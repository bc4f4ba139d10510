package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/distmat"
	"repro/internal/engine"
	"repro/internal/localsolve"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Layer timings repeat a call until a round lasts layerRound, and report
// the median per-call time of layerRounds rounds.
const (
	layerRound  = 20 * time.Millisecond
	layerRounds = 5
)

// perCall times fn as above, one span per round.
func (b *bench) perCall(name string, fn func() error) (time.Duration, error) {
	var per []float64
	for r := 0; r < layerRounds; r++ {
		sp := b.spans.start(name, 0)
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < layerRound || calls == 0 {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			calls++
		}
		d := time.Since(t0)
		b.spans.endWith(sp, map[string]float64{"calls": float64(calls)})
		per = append(per, d.Seconds()/float64(calls))
	}
	return time.Duration(median(per) * float64(time.Second)), nil
}

// layers times each layer from outside, around calls to its public
// functions, on the workload's own matrix, block-row partition and rank
// count. Kernel rates cover every rank's block, so they are per-session
// costs divided by the work.
func (b *bench) layers(ctx context.Context) error {
	a, ranks := b.a, b.wl.ranks
	p := partition.NewBlockRow(a.Rows, ranks)
	rowBlocks := make([]*sparse.CSR, ranks)
	diagBlocks := make([]*sparse.CSR, ranks)
	diagNNZ := 0
	for r := 0; r < ranks; r++ {
		lo, hi := p.Range(r)
		rowBlocks[r] = a.RowBlock(lo, hi)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		diagBlocks[r] = a.Submatrix(idx, idx)
		diagNNZ += diagBlocks[r].NNZ()
	}
	nnz := float64(a.NNZ())
	x := b.rhs()
	y := make([]float64, a.Rows)

	// sparse: SpMV and the k-column SpMM over every rank's row block.
	d, err := b.perCall("sparse.MulVec", func() error {
		for r, m := range rowBlocks {
			lo, hi := p.Range(r)
			m.MulVec(y[lo:hi], x)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["sparse.spmv_ns_per_nnz"] = float64(d.Nanoseconds()) / nnz
	xk := make([]float64, a.Cols*blockSize)
	for i := range xk {
		xk[i] = x[i/blockSize]
	}
	yk := make([]float64, a.Rows*blockSize)
	d, err = b.perCall("sparse.MulMat", func() error {
		for r, m := range rowBlocks {
			lo, hi := p.Range(r)
			m.MulMat(yk[lo*blockSize:hi*blockSize], xk, blockSize)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["sparse.spmm_ns_per_nnz_col"] = float64(d.Nanoseconds()) / (nnz * blockSize)

	// localsolve: block-Jacobi ILU(0) factorisation, one sweep, and the
	// k-column sweep, over every rank's diagonal block.
	factors := make([]*localsolve.ILU0, ranks)
	d, err = b.perCall("localsolve.NewILU0", func() error {
		for r, m := range diagBlocks {
			f, err := localsolve.NewILU0(m)
			if err != nil {
				return err
			}
			factors[r] = f
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["localsolve.ilu0_factor_ms"] = float64(d.Nanoseconds()) / 1e6
	d, _ = b.perCall("localsolve.ILU0.Solve", func() error {
		for r, f := range factors {
			lo, hi := p.Range(r)
			f.Solve(y[lo:hi], x[lo:hi])
		}
		return nil
	})
	b.layer["localsolve.ilu0_sweep_ns_per_nnz"] = float64(d.Nanoseconds()) / float64(diagNNZ)
	zk := make([][][]float64, ranks)
	rk := make([][][]float64, ranks)
	for r := range factors {
		lo, hi := p.Range(r)
		for c := 0; c < blockSize; c++ {
			zk[r] = append(zk[r], make([]float64, hi-lo))
			rk[r] = append(rk[r], x[lo:hi])
		}
	}
	d, _ = b.perCall("localsolve.ILU0.SolveK", func() error {
		for r, f := range factors {
			f.SolveK(zk[r], rk[r])
		}
		return nil
	})
	b.layer["localsolve.solvek_ns_per_nnz_col"] = float64(d.Nanoseconds()) / float64(diagNNZ*blockSize)

	// commplan: the halo plan of every rank plus its Eqn. 5/6 redundancy
	// at phi 3; the top-ups are counted exactly.
	extra := 0
	d, err = b.perCall("commplan.BuildAll+BuildRedundancy", func() error {
		extra = 0
		for _, pl := range commplan.BuildAll(a, p) {
			red, err := commplan.BuildRedundancy(pl, phi)
			if err != nil {
				return err
			}
			for _, e := range red.ExtraCounts() {
				extra += e
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["commplan.plan_ms"] = float64(d.Nanoseconds()) / 1e6
	b.layer["commplan.extra_elems"] = float64(extra)

	// cluster and distmat: collectives and distributed products on a chan
	// runtime of the workload's rank count, timed on rank 0 between
	// barriers.
	us, err := b.spmd(ranks, "cluster.Allreduce", 2000, func(e *distmat.Env) (func(int) error, error) {
		vals := []float64{1, 2}
		return func(int) error {
			out, err := e.Grp.Allreduce(cluster.OpSum, vals)
			if err == nil {
				e.Grp.Recycle(out)
			}
			return err
		}, nil
	})
	if err != nil {
		return err
	}
	b.layer["cluster.allreduce_us"] = us
	for _, ph := range []int{0, phi} {
		us, err := b.spmd(ranks, fmt.Sprintf("distmat.MatVec.phi%d", ph), 50, func(e *distmat.Env) (func(int) error, error) {
			lo, hi := p.Range(e.Pos)
			m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, ph, 0)
			if err != nil {
				return nil, err
			}
			xv, yv := distmat.NewVector(p, e.Pos), distmat.NewVector(p, e.Pos)
			copy(xv.Local, x[lo:hi])
			return func(i int) error { return m.MatVec(e, yv, xv, i) }, nil
		})
		if err != nil {
			return err
		}
		b.layer[fmt.Sprintf("distmat.matvec_%s_us", map[int]string{0: "ref", phi: "phi3"}[ph])] = us
	}
	return b.storeAppend()
}

// spmd runs calls of the function mk builds on every rank of a fresh chan
// runtime, in layerRounds segments of n calls separated by barriers, and
// returns rank 0's median time per call in microseconds.
func (b *bench) spmd(ranks int, name string, n int, mk func(e *distmat.Env) (func(int) error, error)) (float64, error) {
	rt := cluster.New(ranks, cluster.WithTransport(cluster.NewChanTransport()))
	var per []float64
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		call, err := mk(e)
		if err != nil {
			return err
		}
		iter := 0
		for r := 0; r < layerRounds; r++ {
			if err := e.Grp.Barrier(); err != nil {
				return err
			}
			sp := 0
			if e.Pos == 0 {
				sp = b.spans.start(name, 0)
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := call(iter); err != nil {
					return err
				}
				iter++
			}
			if e.Pos == 0 {
				per = append(per, time.Since(t0).Seconds()/float64(n))
				b.spans.endWith(sp, map[string]float64{"calls": float64(n)})
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return median(per) * 1e6, nil
}

// storeAppend times Store.Append of a job-sized result record (an ESR
// solve's statistics, as the daemon journals them) in a fresh data dir.
func (b *bench) storeAppend() error {
	sol, err := b.s3.Solve(context.Background(), ones(b.a.Rows))
	if err != nil {
		return err
	}
	res, err := json.Marshal(engine.Solution{Result: sol.Result})
	if err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: filepath.Join(b.tmp, "append")})
	if err != nil {
		return err
	}
	rec := store.Record{Kind: store.KindResult, Time: time.Now(), JobID: "job-000001", Result: res}
	d, err := b.perCall("store.Append", func() error { return st.Append(rec) })
	if err != nil {
		st.Close()
		return err
	}
	b.layer["store.append_us"] = float64(d.Nanoseconds()) / 1e3
	return st.Close()
}
