package main

import (
	"context"
	"fmt"
	"time"

	esr "repro"
)

// blockSize is the SolveBatch block width of the batch metric.
const blockSize = 32

// batchesPerGroup is the number of batches in a group.
const batchesPerGroup = 4

// batchGroup is the state of the current group of four batches: three
// failure-free batches on fresh seeded right-hand sides, then one that
// re-solves a seeded one of the three while three contiguous ranks fail,
// and must match its twin's iteration count column by column. A group's
// time, the sum of its four batch times, is one sample: every sample holds
// the same mix of failure-free and failing batches.
type batchGroup struct {
	n     int // batches run so far
	rhs   [3][][]float64
	iters [3][]int
	secs  float64 // the current group's time so far
	ok    bool    // no batch of the current group has failed
}

// batchOnce solves the next batch of the workload's batchWidth right-hand
// sides through Solver.SolveBatch at block size 32, checks every column,
// and records the group's time once its fourth batch is done.
func (b *bench) batchOnce(ctx context.Context) {
	g := &b.batches
	pos := g.n % batchesPerGroup
	g.n++
	if pos == 0 {
		g.secs, g.ok = 0, true
	}
	var bs [][]float64
	var want []int
	opts := []esr.Option{esr.WithBlockSize(blockSize)}
	name := "solve.batch"
	if pos < 3 {
		bs = make([][]float64, b.wl.batchWidth)
		for c := range bs {
			bs[c] = b.rhs()
		}
		g.rhs[pos], g.iters[pos] = bs, nil
	} else {
		twin := b.rng.Intn(3)
		bs, want = g.rhs[twin], g.iters[twin]
		if want == nil {
			return // the twin failed its own check, already counted
		}
		minIt := want[0]
		for _, it := range want {
			minIt = min(minIt, it)
		}
		opts = append(opts, esr.WithSchedule(esr.NewSchedule(
			esr.Simultaneous(b.failIter(minIt), b.failRanks(3)...))))
		name = "solve.batch.fail3"
	}
	sp := b.spans.start(name, 0)
	t0 := time.Now()
	sols, err := b.s3.SolveBatch(ctx, bs, opts...)
	d := time.Since(t0).Seconds()
	b.spans.end(sp)
	if err == nil && len(sols) != len(bs) {
		err = fmt.Errorf("%d solutions for %d right-hand sides", len(sols), len(bs))
	}
	iters := make([]int, len(bs))
	for c := 0; err == nil && c < len(bs); c++ {
		w := 0
		if want != nil {
			w = want[c]
		}
		if err = verify(b.a, bs[c], sols[c].X, sols[c].Result, w); err != nil {
			err = fmt.Errorf("column %d: %w", c, err)
		}
		iters[c] = sols[c].Result.Iterations
	}
	g.secs += d
	if !b.tally(fmt.Sprintf("batch/%d", pos), err) {
		g.ok = false
		return
	}
	if pos < 3 {
		g.iters[pos] = iters
	}
	if pos == batchesPerGroup-1 && g.ok {
		b.t["batch_group"] = append(b.t["batch_group"], g.secs)
	}
}
