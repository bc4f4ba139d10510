package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	esr "repro"
	"repro/internal/engine"
	"repro/internal/matgen"
)

// phi is the redundancy level of every ESR session: the paper's headline
// scenario loses three nodes at once.
const phi = 3

// workload is one system the benchmark drives through every path: solo
// solves with and without failures, blocked batches and esrd jobs. The
// shares set how much of the measured window each path gets, which is what
// makes a workload stress one set of layers more than another.
type workload struct {
	name string
	// build makes the system matrix in process; gen names the same matrix
	// for the daemon, which builds it itself on registration.
	build func() *esr.Matrix
	gen   engine.MatrixSpec
	ranks int
	// batchWidth is the number of right-hand sides per SolveBatch call.
	batchWidth int
	// Shares of the measured window: solo solves, blocked batches, jobs.
	// The paths interleave over the whole window (see measure).
	solo, batch, jobs float64
	// inlineEvery > 0 sends every inlineEvery-th job with its own inline
	// MatrixMarket matrix: a prep-cache miss and a larger journal record.
	inlineEvery int
	// epochJobs > 0 runs the jobs in epochs of this many jobs, each on
	// a fresh daemon and data dir; setup_s is then the daemon's restart time
	// on a filled data dir (journal replay) instead of esr.NewSolver.
	epochJobs int
}

func catalogue(id string, scale matgen.Scale) func() *esr.Matrix {
	return func() *esr.Matrix {
		for _, e := range matgen.Catalogue() {
			if e.ID == id {
				return e.Build(scale)
			}
		}
		panic("unknown catalogue id " + id)
	}
}

// workloads are the benchmark's three workloads; BENCHMARK.json records the
// reason each was chosen. Each runs every path, so that the 32-wide blocked
// batches of esrd-jobs stand in for a workload of their own: with a fourth
// workload the runs had to be so short that their spread across seeds
// neared the bounds.
var workloads = []workload{
	{
		// M5 (Elasticity3D, ~50 nnz/row): redundancy rides free on the
		// halo, so sparse and localsolve do most of the work.
		name:  "esr-banded",
		build: catalogue("M5", matgen.ScaleSmall),
		gen:   engine.MatrixSpec{Generator: "M5", Params: map[string]float64{"scale": 1}},
		ranks: 16, batchWidth: 8, solo: 0.4, batch: 0.25, jobs: 0.35,
	},
	{
		// M3 (CircuitLike, 35% long-range links, ~3.9 nnz/row): wide
		// scattered halos and many Eqn. 6 top-ups, so cluster, commplan and
		// the core recovery dominate.
		name:  "esr-scattered",
		build: catalogue("M3", matgen.ScaleSmall),
		gen:   engine.MatrixSpec{Generator: "M3", Params: map[string]float64{"scale": 1}},
		ranks: 16, batchWidth: 8, solo: 0.35, batch: 0.25, jobs: 0.4,
	},
	{
		// Tiny M1 jobs through the daemon: engine, store and esrd dominate.
		name:  "esrd-jobs",
		build: catalogue("M1", matgen.ScaleTiny),
		gen:   engine.MatrixSpec{Generator: "M1", Params: map[string]float64{"scale": 0}},
		ranks: 8, batchWidth: 32, solo: 0.25, batch: 0.2, jobs: 0.55,
		inlineEvery: 20, epochJobs: 300,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench holds one run's state: the prepared sessions, the collected
// samples and the correctness tally.
type bench struct {
	wl     workload
	rng    *rand.Rand
	window time.Duration
	traced bool
	esrd   string
	tmp    string
	spans  *spans

	a        *esr.Matrix
	ref, s3  *esr.Solver // phi 0 (the unprotected reference) and phi 3
	setupS   []float64   // set-up samples, seconds
	onesIter int         // failure-free iterations for b = ones (the jobs' b)
	x0       []float64   // round 0's solution, for the determinism check
	batches  batchGroup

	// Timing samples in seconds, by operation kind.
	t          map[string][]float64
	samples    map[string]int
	layer      map[string]float64
	selfTestOK bool
	attempted  int
	failed     int
	failures   []string
}

func (b *bench) setup(ctx context.Context) error {
	sp := b.spans.start("setup.matrix", 0)
	b.a = b.wl.build()
	b.spans.end(sp)
	var err error
	if b.ref, err = esr.NewSolver(b.a, esr.WithRanks(b.wl.ranks), esr.WithPhi(0)); err != nil {
		return fmt.Errorf("reference session: %w", err)
	}
	if b.s3, err = esr.NewSolver(b.a, esr.WithRanks(b.wl.ranks), esr.WithPhi(phi)); err != nil {
		return fmt.Errorf("esr session: %w", err)
	}
	return nil
}

func (b *bench) close() {
	if b.ref != nil {
		b.ref.Close()
	}
	if b.s3 != nil {
		b.s3.Close()
	}
}

// measure runs the workload's paths inside the measured window, interleaved
// so that every metric's samples span the whole window: each cycle is a
// set-up sample on the solver workloads while set-up has had at most a tenth
// of the in-process time, one round of solo solves, then blocked batches and
// esrd job bursts for as long as each is below its share of the time so far.
// A stretch of machine noise then lands on every metric alike instead of on
// the one path that happened to run during it. Traced runs then time the
// layers one by one on the workload's matrix and partition.
func (b *bench) measure(ctx context.Context) error {
	inline, err := b.makeInline(ctx)
	if err != nil {
		return err
	}
	jp := &jobPool{inline: inline}
	defer jp.close()
	deadline := time.Now().Add(b.window)
	var setupT, soloT, batchT, jobT time.Duration
	below := func(t time.Duration, share float64) bool {
		return float64(t) < share*float64(soloT+batchT+jobT)
	}
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if b.wl.epochJobs == 0 && 10*setupT <= setupT+soloT+batchT {
			t0 := time.Now()
			if err := b.setupRep(); err != nil {
				return err
			}
			setupT += time.Since(t0)
		}
		t0 := time.Now()
		b.soloRound(ctx, r)
		soloT += time.Since(t0)
		for b.batches.n == 0 || below(batchT, b.wl.batch) {
			t0 := time.Now()
			b.batchOnce(ctx)
			batchT += time.Since(t0)
		}
		for jp.bursts == 0 || below(jobT, b.wl.jobs) {
			t0 := time.Now()
			if err := b.jobBurst(ctx, jp, t0.Add(jobBurst)); err != nil {
				return err
			}
			jobT += time.Since(t0)
		}
	}
	// A group of batches or an epoch of jobs open when the window ends runs
	// to its end, so that every run has whole samples of both.
	for b.batches.n%batchesPerGroup != 0 {
		b.batchOnce(ctx)
	}
	if err := b.finishJobs(ctx, jp); err != nil {
		return err
	}
	b.determinism(ctx)
	if b.traced {
		return b.layers(ctx)
	}
	return nil
}

// rhs returns a seeded right-hand side with entries in [0.5, 1.5).
func (b *bench) rhs() []float64 {
	v := make([]float64, b.a.Rows)
	for i := range v {
		v[i] = 0.5 + b.rng.Float64()
	}
	return v
}

// failIter picks the failure iteration between 20% and 80% progress of a
// failure-free solve that takes iters iterations.
func (b *bench) failIter(iters int) int {
	lo := iters / 5
	hi := 4 * iters / 5
	if hi <= lo {
		return lo
	}
	return lo + b.rng.Intn(hi-lo+1)
}

// failRanks picks count contiguous ranks at the start or at the centre of
// the rank list, the two placements of the paper's experiments.
func (b *bench) failRanks(count int) []int {
	start := 0
	if b.rng.Intn(2) == 1 {
		start = b.wl.ranks/2 - count/2
	}
	return esr.ContiguousRanks(start, count, b.wl.ranks)
}
