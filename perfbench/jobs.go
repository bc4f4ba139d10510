package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	esr "repro"
	"repro/internal/engine"
	"repro/internal/store"
)

// jobClients is the closed loop's client count: each client submits its
// next job only once the previous one is done.
const jobClients = 2

// inlineJob is a small system sent inline as MatrixMarket bytes, with the
// failure-free iteration count of b = ones measured in process on the same
// bytes the daemon parses.
type inlineJob struct {
	mm    []byte
	n     int
	iters int
}

// jobPlan is one generated job with what its check expects.
type jobPlan struct {
	kind      string // free, fail3 or inline
	spec      engine.JobSpec
	wantIters int
	rhsNorm   float64
}

// jobOutcome is what one client observed for one job.
type jobOutcome struct {
	plan              jobPlan
	id                string
	latency, submit   time.Duration
	queueWait, runDur time.Duration
	end               time.Time
	// cycle is one turn of the client's closed loop: submit to the status
	// fetched, when the client takes its next job.
	cycle  time.Duration
	status jobStatus
	err    error
}

// makeInline builds the inline matrices of one epoch: distinct seeds, so
// each is a prep-cache miss.
func (b *bench) makeInline(ctx context.Context) ([]inlineJob, error) {
	if b.wl.inlineEvery == 0 {
		return nil, nil
	}
	out := make([]inlineJob, b.wl.epochJobs/b.wl.inlineEvery)
	for i := range out {
		var buf bytes.Buffer
		m := esr.CircuitLike(600, 2.9, 0.35, b.rng.Int63())
		if err := esr.WriteMatrixMarket(&buf, m, false); err != nil {
			return nil, err
		}
		parsed, err := esr.ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		s, err := esr.NewSolver(parsed, esr.WithRanks(b.wl.ranks), esr.WithPhi(phi))
		if err != nil {
			return nil, err
		}
		sol, err := s.Solve(ctx, ones(parsed.Rows))
		s.Close()
		if err != nil {
			return nil, err
		}
		out[i] = inlineJob{mm: buf.Bytes(), n: parsed.Rows, iters: sol.Result.Iterations}
	}
	return out, nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// planJob generates job i of an epoch. Two in five jobs on the registered
// matrix lose three contiguous ranks at a seeded iteration; every
// inlineEvery-th job carries its own inline matrix. All jobs solve b = ones.
func (b *bench) planJob(i int, matID string, inline []inlineJob) jobPlan {
	cfg := engine.Config{Ranks: b.wl.ranks, Phi: phi}
	n := b.a.Rows
	if b.wl.inlineEvery > 0 && i%b.wl.inlineEvery == b.wl.inlineEvery-1 {
		in := inline[(i/b.wl.inlineEvery)%len(inline)]
		return jobPlan{
			kind:      "inline",
			spec:      engine.JobSpec{Matrix: engine.MatrixSpec{MatrixMarket: in.mm}, Config: cfg},
			wantIters: in.iters, rhsNorm: math.Sqrt(float64(in.n)),
		}
	}
	p := jobPlan{kind: "free", wantIters: b.onesIter, rhsNorm: math.Sqrt(float64(n))}
	if i%5 == 1 || i%5 == 3 {
		p.kind = "fail3"
		cfg.Schedule = esr.NewSchedule(esr.Simultaneous(b.failIter(b.onesIter), b.failRanks(3)...))
	}
	p.spec = engine.JobSpec{MatrixID: matID, Config: cfg}
	return p
}

// runJob submits one job, follows its event stream to the terminal state
// and fetches its status.
func runJob(ctx context.Context, d *daemon, p jobPlan) jobOutcome {
	o := jobOutcome{plan: p}
	t0 := time.Now()
	o.id, o.submit, o.err = d.submit(ctx, p.spec)
	if o.err != nil {
		return o
	}
	states, err := d.wait(ctx, o.id)
	o.end = time.Now()
	o.latency = o.end.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	at := map[string]time.Time{}
	for _, ev := range states {
		at[string(ev.State)] = ev.Time
	}
	o.queueWait = at["running"].Sub(at["queued"])
	o.runDur = at["done"].Sub(at["running"])
	o.status, o.err = d.status(ctx, o.id)
	o.cycle = time.Since(t0)
	return o
}

// jobBurst is how long one burst of esrd jobs hands out new jobs: long
// enough for several jobs per client on the large systems.
const jobBurst = 2 * time.Second

// minBurstJobs is the fewest jobs a burst hands out, however late it starts.
const minBurstJobs = 2 * jobClients

// jobPool is the esrd side of a run: one daemon at a time on its own data
// dir, driven in bursts between the in-process rounds. On workloads with
// epochJobs each epoch of that many jobs runs on a fresh daemon and data
// dir; otherwise one daemon serves the whole run.
type jobPool struct {
	inline   []inlineJob
	bursts   int
	epoch    int
	d        *daemon // nil between epochs
	name     string
	matID    string
	next     int          // jobs handed out in this epoch
	outcomes []jobOutcome // this epoch's jobs, the warm-up first
}

// close stops a daemon left running by an error.
func (jp *jobPool) close() {
	if jp.d != nil {
		_ = jp.d.stop()
		jp.d = nil
	}
}

// startEpoch starts a daemon on a fresh data dir, registers the workload's
// matrix and runs the warm-up job, which prepares the registered system so
// that later jobs on it hit the prep cache. The warm-up is checked but is
// not a sample.
func (b *bench) startEpoch(ctx context.Context, jp *jobPool) error {
	jp.name = fmt.Sprintf("esrd-%d", jp.epoch)
	d, _, err := startDaemon(b.esrd, b.tmp, jp.name, b.traced)
	if err != nil {
		return err
	}
	jp.d = d
	if jp.matID, err = d.registerMatrix(ctx, b.wl.gen); err != nil {
		return fmt.Errorf("registering %s: %w", b.wl.name, err)
	}
	warm := runJob(ctx, d, jobPlan{
		kind: "free", spec: engine.JobSpec{MatrixID: jp.matID, Config: engine.Config{Ranks: b.wl.ranks, Phi: phi}},
		wantIters: b.onesIter, rhsNorm: math.Sqrt(float64(b.a.Rows)),
	})
	b.checkJob(warm)
	jp.next = 0
	jp.outcomes = []jobOutcome{warm}
	return nil
}

// checkJob verifies one job's outcome and counts it; false if it failed.
func (b *bench) checkJob(o jobOutcome) bool {
	err := o.err
	if err == nil {
		err = verifyJob(o.status, o.plan.rhsNorm, o.plan.wantIters)
	}
	return b.tally("job/"+o.plan.kind, err)
}

// jobBurst drives the daemon with a closed loop of jobClients clients, each
// submitting its next job once the previous one is done, until until has
// passed and the burst has handed out at least minBurstJobs jobs, or the
// epoch has all its jobs. An epoch always runs all its jobs, so that every
// restart replays a data dir of the same size.
func (b *bench) jobBurst(ctx context.Context, jp *jobPool, until time.Time) error {
	if jp.d == nil {
		if err := b.startEpoch(ctx, jp); err != nil {
			return err
		}
	}
	jp.bursts++
	var mu sync.Mutex
	handed := 0
	var idleAt time.Time // when the first client ran out of jobs
	take := func() (jobPlan, bool) {
		mu.Lock()
		defer mu.Unlock()
		done := handed >= minBurstJobs && time.Now().After(until)
		if b.wl.epochJobs > 0 && jp.next >= b.wl.epochJobs {
			done = true
		}
		if done {
			if idleAt.IsZero() {
				idleAt = time.Now()
			}
			return jobPlan{}, false
		}
		p := b.planJob(jp.next, jp.matID, jp.inline)
		jp.next++
		handed++
		return p, true
	}
	var outcomes []jobOutcome
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, ok := take()
				if !ok {
					return
				}
				o := runJob(ctx, jp.d, p)
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Samples are the jobs that finished while every client was busy: the
	// tail a lone client runs after the others stopped is not closed-loop
	// load.
	for _, o := range outcomes {
		if !b.checkJob(o) || o.end.After(idleAt) {
			continue
		}
		b.t["job"] = append(b.t["job"], o.latency.Seconds())
		b.t["job_cycle"] = append(b.t["job_cycle"], o.cycle.Seconds())
		b.t["submit"] = append(b.t["submit"], o.submit.Seconds())
		b.t["queue_wait"] = append(b.t["queue_wait"], o.queueWait.Seconds())
		b.t["run"] = append(b.t["run"], o.runDur.Seconds())
	}
	jp.outcomes = append(jp.outcomes, outcomes...)
	if b.wl.epochJobs > 0 && jp.next >= b.wl.epochJobs {
		return b.endEpoch(ctx, jp)
	}
	return nil
}

// finishJobs ends the run's job side once the window has passed: an open
// epoch first runs its remaining jobs.
func (b *bench) finishJobs(ctx context.Context, jp *jobPool) error {
	for b.wl.epochJobs > 0 && jp.d != nil {
		if err := b.jobBurst(ctx, jp, time.Now().Add(time.Hour)); err != nil {
			return err
		}
	}
	if jp.d == nil {
		return nil
	}
	return b.endEpoch(ctx, jp)
}

// endEpoch reads the daemon's job traces (traced runs) and health, stops
// it, and replays its data dir.
func (b *bench) endEpoch(ctx context.Context, jp *jobPool) error {
	if b.traced {
		if err := b.traceJobs(ctx, jp.d, jp.outcomes); err != nil {
			return err
		}
	}
	h, err := jp.d.health(ctx)
	if err != nil {
		return err
	}
	b.layerSum("prep_hits", float64(h.PrepCache.Hits))
	b.layerSum("prep_acquires", float64(h.PrepCache.Hits+h.PrepCache.Misses))
	b.layerSum("journal_records", h.Store["journal_records_total"])
	b.layerSum("journal_jobs", float64(len(jp.outcomes)))
	d := jp.d
	jp.d = nil
	if err := d.stop(); err != nil {
		return fmt.Errorf("stopping esrd: %w", err)
	}
	jp.epoch++
	return b.restarts(ctx, jp.name, jp.outcomes)
}

// restarts restarts the daemon on the epoch's data dir and checks that the
// replayed terminal results equal the originals byte for byte. On
// workloads with epochs the restart time is the set-up sample.
func (b *bench) restarts(ctx context.Context, name string, outcomes []jobOutcome) error {
	n := 1
	if b.wl.epochJobs > 0 {
		n = restartsPerEpoch
	}
	for r := 0; r < n; r++ {
		d, ready, err := startDaemon(b.esrd, b.tmp, name, false)
		if err != nil {
			return err
		}
		if b.wl.epochJobs > 0 {
			b.setupS = append(b.setupS, ready.Seconds())
		}
		sts, err := d.list(ctx)
		if err == nil {
			err = sameResults(outcomes, sts)
		}
		b.tally("replay", err)
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping esrd: %w", err)
		}
	}
	if b.traced {
		// store.replay_ms: the store layer alone reopening the data dir.
		for r := 0; r < 3; r++ {
			sp := b.spans.start("store.Open", 0)
			t0 := time.Now()
			st, err := store.Open(store.Options{Dir: b.tmp + "/" + name})
			if err != nil {
				return err
			}
			_ = st.Records()
			b.t["store_replay"] = append(b.t["store_replay"], time.Since(t0).Seconds())
			b.spans.end(sp)
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// restartsPerEpoch is how many times an epoch's filled data dir is
// replayed for set-up samples.
const restartsPerEpoch = 2

func sameResults(outcomes []jobOutcome, replayed []jobStatus) error {
	byID := map[string]jobStatus{}
	for _, st := range replayed {
		byID[st.ID] = st
	}
	for _, o := range outcomes {
		if o.id == "" {
			continue
		}
		st, ok := byID[o.id]
		if !ok {
			return fmt.Errorf("job %s missing after replay", o.id)
		}
		if st.State != o.status.State || !bytes.Equal(st.Raw, o.status.Raw) {
			return fmt.Errorf("job %s replayed as %s with a different result", o.id, st.State)
		}
	}
	return nil
}

// traceJobs reads each job's /trace and accumulates the solver phase time
// the daemon captured, against the jobs' run time.
func (b *bench) traceJobs(ctx context.Context, d *daemon, outcomes []jobOutcome) error {
	for _, o := range outcomes[1:] {
		if o.err != nil {
			continue
		}
		tr, err := d.trace(ctx, o.id)
		if err != nil {
			return fmt.Errorf("job trace: %w", err)
		}
		var phase time.Duration
		for _, it := range tr.Iterations {
			phase += it.SpMV + it.Precond + it.Allreduce
		}
		b.layerSum("job_phase_s", phase.Seconds())
		b.layerSum("job_run_s", o.runDur.Seconds())
	}
	return nil
}

func (b *bench) layerSum(key string, v float64) { b.layer[key] += v }
