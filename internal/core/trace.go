package core

import "time"

// IterationTrace is one completed PCG iteration as seen by a Tracer: the
// residual trajectory plus the wall-clock split of the iteration's three
// communication-bearing phases. Durations marshal as integer nanoseconds.
type IterationTrace struct {
	// Iteration is the 1-based completed iteration number (matching
	// ProgressEvent.Iteration for iteration events).
	Iteration int `json:"iteration"`
	// Residual is the recurrence residual norm ||r|| after the iteration;
	// RelResidual is Residual / ||r0||.
	Residual    float64 `json:"residual"`
	RelResidual float64 `json:"rel_residual"`
	// SpMV is the time in u = A p — the halo exchange plus the local
	// compute, including a redone SpMV after an in-place reconstruction.
	SpMV time.Duration `json:"spmv_ns"`
	// Precond is the time in z = M^{-1} r.
	Precond time.Duration `json:"precond_ns"`
	// Allreduce is the time in the iteration's distributed reductions: the
	// p'u dot product and the fused (||r||^2, r'z) allreduce.
	Allreduce time.Duration `json:"allreduce_ns"`
}

// RecoveryTrace is one completed recovery episode as seen by a Tracer.
type RecoveryTrace struct {
	// Iteration is the 0-based iteration whose state was rebuilt.
	Iteration int `json:"iteration"`
	// Strategy is the recovering strategy's wire name.
	Strategy string `json:"strategy"`
	// FailedRanks is the union of ranks lost in the episode.
	FailedRanks []int `json:"failed_ranks"`
	// Restarts counts episode restarts forced by overlapping failures.
	Restarts int `json:"restarts"`
	// RedoneIterations is the rollback depth: how many completed iterations
	// the episode threw away (0 for ESR's in-place reconstruction).
	RedoneIterations int `json:"redone_iterations"`
	// Corruption marks a silent-data-corruption correction episode (twin
	// forward recovery) rather than a fail-stop recovery. FailedRanks then
	// holds the diverged ranks.
	Corruption bool `json:"corruption,omitempty"`
	// Duration is the wall-clock time of the episode.
	Duration time.Duration `json:"duration_ns"`
}

// Tracer observes the solver loop at its phase boundaries. Like
// ProgressFunc, a tracer is called synchronously from the solver loop of the
// rank it is installed on (install on rank 0 to observe a solve exactly
// once), so implementations must be cheap and must not block.
//
// Tracing is observer-only by construction: the driver reads clocks around
// the phases it already executes and hands the tracer copies of values it
// already computed, so a traced solve is bit-identical to an untraced one —
// see TestCrossTransportBitIdentical.
type Tracer interface {
	// TraceIteration is called after every completed iteration.
	TraceIteration(IterationTrace)
	// TraceRecovery is called after every completed recovery episode.
	TraceRecovery(RecoveryTrace)
}

// multiTracer fans one trace stream out to several tracers in order.
type multiTracer []Tracer

func (m multiTracer) TraceIteration(t IterationTrace) {
	for _, tr := range m {
		tr.TraceIteration(t)
	}
}

func (m multiTracer) TraceRecovery(t RecoveryTrace) {
	for _, tr := range m {
		tr.TraceRecovery(t)
	}
}

// MultiTracer combines tracers into one that replays every trace to each of
// them in order. Nil entries are dropped; with zero non-nil entries the
// result is nil (tracing disabled), and a single non-nil entry is returned
// as-is.
func MultiTracer(ts ...Tracer) Tracer {
	var out multiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// The iteration phases a phaseClock accumulates.
const (
	clockSpMV = iota
	clockPrecond
	clockAllreduce
)

// phaseClock accumulates the per-iteration phase durations of a traced
// solve. The zero value is ready; all methods are no-ops on a nil receiver,
// so the untraced hot path pays exactly one pointer test per phase and never
// reads the clock.
type phaseClock struct {
	d    [3]time.Duration
	mark time.Time
}

// start begins timing a phase.
func (c *phaseClock) start() {
	if c == nil {
		return
	}
	c.mark = time.Now()
}

// stop ends the phase begun by start and accumulates its duration.
func (c *phaseClock) stop(phase int) {
	if c == nil {
		return
	}
	c.d[phase] += time.Since(c.mark)
}

// reset clears the accumulators for the next iteration.
func (c *phaseClock) reset() {
	if c == nil {
		return
	}
	c.d = [3]time.Duration{}
}

// emit reports the completed iteration to the tracer and resets.
func (c *phaseClock) emit(tr Tracer, iteration int, rn, rel float64) {
	if c == nil {
		return
	}
	tr.TraceIteration(IterationTrace{
		Iteration: iteration, Residual: rn, RelResidual: rel,
		SpMV: c.d[clockSpMV], Precond: c.d[clockPrecond], Allreduce: c.d[clockAllreduce],
	})
	c.reset()
}
