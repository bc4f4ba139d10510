// Package cluster implements an in-process distributed-memory SPMD runtime:
// the substitute for MPI + ULFM in the paper's experimental setup (see
// README.md, "Stand-ins for the paper's setup"). Every rank runs as its own
// goroutine with strictly private memory; all data exchange goes through
// typed messages over channels. The runtime provides
//
//   - point-to-point Send/Recv with (source, tag) matching,
//   - binomial-tree collectives (Barrier, Allreduce, Bcast, Allgather),
//   - sub-group collectives for the replacement-node recovery subsystem,
//   - fail-stop semantics: a rank can be killed, its memory is lost, peers
//     observe RankFailedError on communication (ULFM-style notification),
//     and a replacement rank can be provisioned in its slot,
//   - communication counters by category for the overhead analysis.
//
// The message layer is deterministic for deterministic SPMD programs:
// matching is FIFO per (source, tag) pair and reductions use a fixed tree
// order, so repeated runs produce bit-identical floating-point results.
//
// Delivery itself is pluggable: every rank-to-rank hand-off flows through
// the runtime's Transport (WithTransport). ChanTransport is the default
// copy-on-send fabric, FastTransport the zero-copy pooled fabric for
// nearly allocation-free steady-state solves, and ChaosTransport a seeded
// latency/notification-lag wire for stressing the resilience protocol.
// Matching lives above the transport, so all fabrics share the determinism
// guarantee.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Msg is a message exchanged between ranks. Payloads are a float64 slice
// and/or an int slice. Ownership follows the send variant used:
//
//   - Send copies payloads (on every transport), so the sender may reuse
//     its buffers immediately, and the receiver exclusively owns the
//     slices it gets.
//   - SendOwned transfers ownership: the sender must not touch the slices
//     after the call (success or error), and the receiver owns them.
//
// Either way the receiver is the exclusive owner of a received message's
// payloads; once it is done with them (and does not retain them, e.g. in
// the SpMV retention store) it may hand them back to the transport's
// buffer recycler with Comm.Recycle — a no-op on transports without one.
type Msg struct {
	From int
	Tag  int
	F    []float64
	I    []int
}

type msgKey struct {
	from, tag int
}

// node is the runtime-side state of one rank slot. It carries two views of
// its death: dead is the truth, observed immediately by the node's own
// operations, while peerDead is the failure notification seen by everyone
// else — the transport closes it (immediately for faithful fail-stop
// semantics, lagged by the chaos transport).
type node struct {
	rank     int
	inbox    chan Msg
	dead     chan struct{} // closed when the node fails
	peerDead chan struct{} // closed when peers are notified of the failure
	once     sync.Once
	peerOnce sync.Once
}

// notifyPeers publishes the node's death to its peers. Called by the
// runtime's transport, which controls the timing.
func (nd *node) notifyPeers() {
	nd.peerOnce.Do(func() { close(nd.peerDead) })
}

func (nd *node) isDead() bool {
	select {
	case <-nd.dead:
		return true
	default:
		return false
	}
}

// peerSeesDead reports whether the node's failure notification has reached
// its peers.
func (nd *node) peerSeesDead() bool {
	select {
	case <-nd.peerDead:
		return true
	default:
		return false
	}
}

// Runtime owns the rank slots of a simulated distributed-memory machine.
// All rank-to-rank delivery flows through its Transport (the chan fabric by
// default; see WithTransport).
type Runtime struct {
	size      int
	transport Transport
	mu        sync.Mutex
	nodes     []*node
	counters  Counters

	abort      chan struct{} // closed by Abort
	abortOnce  sync.Once
	abortCause error // set before abort closes; read only after <-abort
}

// Option configures a Runtime at construction.
type Option func(*Runtime)

// WithTransport selects the communication fabric. The transport instance
// must be dedicated to this runtime (transports carry per-runtime state);
// nil keeps the default. Use NewTransport to build one by name.
func WithTransport(t Transport) Option {
	return func(rt *Runtime) {
		if t != nil {
			rt.transport = t
		}
	}
}

// runtimeBinder is implemented by transports that need the runtime at
// construction (the net transport: listener setup, peer layout validation).
// New invokes it once, after the rank slots exist.
type runtimeBinder interface {
	bindRuntime(rt *Runtime)
}

// New creates a runtime with the given number of rank slots.
func New(size int, opts ...Option) *Runtime {
	if size <= 0 {
		panic("cluster: non-positive size")
	}
	rt := &Runtime{size: size, nodes: make([]*node, size), abort: make(chan struct{})}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.transport == nil {
		rt.transport = NewChanTransport()
	}
	for i := range rt.nodes {
		rt.nodes[i] = rt.freshNode(i)
	}
	if b, ok := rt.transport.(runtimeBinder); ok {
		b.bindRuntime(rt)
	}
	return rt
}

func (rt *Runtime) freshNode(rank int) *node {
	return &node{
		rank:     rank,
		inbox:    make(chan Msg, 8*rt.size+64),
		dead:     make(chan struct{}),
		peerDead: make(chan struct{}),
	}
}

// Size returns the number of rank slots.
func (rt *Runtime) Size() int { return rt.size }

// Transport returns the runtime's communication fabric.
func (rt *Runtime) Transport() Transport { return rt.transport }

// Counters returns the global communication counters.
func (rt *Runtime) Counters() *Counters { return &rt.counters }

// node returns the current node in slot rank (replacements swap the slot).
func (rt *Runtime) nodeAt(rank int) *node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodes[rank]
}

// Abort tears the whole runtime down: every pending and future communication
// operation on every rank fails with an AbortError wrapping cause. Unlike
// Kill, which models the fail-stop loss of one node, Abort models an
// administrative shutdown (job cancellation, deadline): no recovery runs and
// Runtime.Run filters the resulting per-rank errors as expected termination.
// Safe to call from any goroutine; only the first call's cause is kept.
func (rt *Runtime) Abort(cause error) {
	rt.abortOnce.Do(func() {
		rt.abortCause = cause
		close(rt.abort)
	})
}

// Aborted reports whether the runtime has been aborted, and the cause.
func (rt *Runtime) Aborted() (error, bool) {
	select {
	case <-rt.abort:
		return rt.abortCause, true
	default:
		return nil, false
	}
}

func (rt *Runtime) abortErr() error { return &AbortError{Cause: rt.abortCause} }

// Kill fails the node currently occupying the slot: its memory is considered
// lost and all communication involving it reports RankFailedError. The node
// itself observes the death immediately; peers observe it when the
// transport publishes the notification (immediately on the default fabric,
// after a lag on the chaos fabric). Safe to call from any goroutine.
func (rt *Runtime) Kill(rank int) {
	nd := rt.nodeAt(rank)
	nd.once.Do(func() {
		close(nd.dead)
		rt.transport.NotifyKill(nd)
	})
}

// Revive installs a fresh (replacement) node in the slot of a failed rank
// and returns a Comm handle for the replacement's goroutine. It panics if
// the slot is still alive.
func (rt *Runtime) Revive(rank int) *Comm {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.nodes[rank].isDead() {
		panic(fmt.Sprintf("cluster: Revive(%d) on a live rank", rank))
	}
	rt.nodes[rank] = rt.freshNode(rank)
	return &Comm{rt: rt, rank: rank, node: rt.nodes[rank], pending: map[msgKey][]Msg{}}
}

// Run launches fn on every rank as its own goroutine and waits for all of
// them. The returned error joins all per-rank errors except ErrKilled
// (killed ranks terminating is expected fail-stop behaviour).
func (rt *Runtime) Run(fn func(c *Comm) error) error {
	ranks := make([]int, rt.size)
	for r := range ranks {
		ranks[r] = r
	}
	return rt.RunLocal(ranks, fn)
}

// RunLocal is Run restricted to the given rank subset: it launches fn only
// on those ranks and waits for them. The multi-process net fabric uses it —
// each process runs the ranks it hosts, with the remaining slots driven by
// peers over the wire.
func (rt *Runtime) RunLocal(ranks []int, fn func(c *Comm) error) error {
	errs := make([]error, rt.size)
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		c := &Comm{rt: rt, rank: r, node: rt.nodeAt(r), pending: map[msgKey][]Msg{}}
		go func(r int, c *Comm) {
			defer wg.Done()
			defer func() {
				// A panicking rank must not take the whole process down
				// (the runtime may be embedded in a long-lived service).
				// Abort the run so peers blocked on this rank's
				// communication unwind instead of deadlocking.
				if p := recover(); p != nil {
					// Keep the stack: with the process surviving, this
					// error is the only diagnostic of the crash site.
					err := fmt.Errorf("cluster: rank %d panicked: %v\n%s", r, p, debug.Stack())
					errs[r] = err
					rt.Abort(err)
				}
			}()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	var agg []error
	for r, err := range errs {
		if err != nil && !errors.Is(err, ErrKilled) && !errors.Is(err, ErrAborted) {
			agg = append(agg, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	return errors.Join(agg...)
}

// RunContext is Run with cancellation: when ctx is cancelled before the SPMD
// program completes, the runtime is aborted (all blocked communication wakes
// with an AbortError) and RunContext returns the context's cause. Ranks still
// observe the abort through their communication calls and must unwind; a
// rank that ignores errors can still stall the return, so SPMD programs
// should propagate communication errors promptly.
func (rt *Runtime) RunContext(ctx context.Context, fn func(c *Comm) error) error {
	ranks := make([]int, rt.size)
	for r := range ranks {
		ranks[r] = r
	}
	return rt.RunLocalContext(ctx, ranks, fn)
}

// RunLocalContext is RunLocal with the cancellation semantics of RunContext.
func (rt *Runtime) RunLocalContext(ctx context.Context, ranks []int, fn func(c *Comm) error) error {
	if ctx == nil {
		return rt.RunLocal(ranks, fn)
	}
	watcherDone := make(chan struct{})
	ranksDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			rt.Abort(context.Cause(ctx))
		case <-ranksDone:
		}
	}()
	err := rt.RunLocal(ranks, fn)
	close(ranksDone)
	<-watcherDone
	if cause, ok := rt.Aborted(); ok && cause != nil {
		return cause
	}
	if ctx.Err() != nil {
		// Ranks may all have observed the context themselves (e.g. via a
		// solver's poll) and unwound before the watcher aborted the runtime;
		// return the clean cause rather than a join of per-rank errors.
		return context.Cause(ctx)
	}
	return err
}

// Comm is a per-rank communicator handle. It must only be used from the
// goroutine of its rank.
type Comm struct {
	rt      *Runtime
	rank    int
	node    *node
	pending map[msgKey][]Msg
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.rt.size }

// Runtime returns the owning runtime (for counters and fault control in
// tests and harnesses).
func (c *Comm) Runtime() *Runtime { return c.rt }

// Check returns ErrKilled if this rank has been killed and an AbortError if
// the runtime has been aborted. SPMD programs call it at cancellation points
// (top of iterations).
func (c *Comm) Check() error {
	if _, ok := c.rt.Aborted(); ok {
		return c.rt.abortErr()
	}
	if c.node.isDead() {
		return ErrKilled
	}
	return nil
}

// Alive reports whether the slot of the given rank currently holds a node
// this rank has not (yet) been notified is dead. This is the ULFM-style
// failure-notification primitive; on the chaos transport the notification
// lags the actual death.
func (c *Comm) Alive(rank int) bool {
	return !c.rt.nodeAt(rank).peerSeesDead()
}

// GetFloats returns a payload buffer of length n from the transport's
// recycler (a plain allocation on transports without one). Intended for
// building payloads that are then handed off with SendOwned.
func (c *Comm) GetFloats(n int) []float64 { return c.rt.transport.GetFloats(n) }

// PutFloats returns a buffer to the transport's recycler. Only the
// exclusive owner may call it, and must not touch the buffer afterwards.
func (c *Comm) PutFloats(buf []float64) { c.rt.transport.PutFloats(buf) }

// Recycle returns a received message's float payload to the transport's
// recycler. Only the exclusive owner of the message may call it, and only
// when nothing retains references into the payload.
func (c *Comm) Recycle(m Msg) {
	if m.F != nil {
		c.rt.transport.PutFloats(m.F)
	}
}

// send is the shared path of Send/SendOwned: validate, then hand off to the
// runtime's transport.
func (c *Comm) send(cat Category, to, tag int, f []float64, ints []int, own bool) error {
	if to < 0 || to >= c.rt.size {
		return fmt.Errorf("cluster: Send to invalid rank %d", to)
	}
	if err := c.Check(); err != nil {
		return err
	}
	dst := c.rt.nodeAt(to)
	if dst.peerSeesDead() {
		return &RankFailedError{Rank: to}
	}
	if err := c.rt.transport.Deliver(c.rt, c.node, dst, Msg{From: c.rank, Tag: tag, F: f, I: ints}, own); err != nil {
		return err
	}
	c.rt.counters.record(cat, 1, len(f), len(ints))
	return nil
}

// Send delivers a message to rank `to` with the given tag, accounting it
// under category cat. Payload slices are copied (on every transport), so
// the caller may reuse its buffers immediately. Send fails with
// RankFailedError if the destination is known to be dead and ErrKilled if
// the sender itself has been killed.
func (c *Comm) Send(cat Category, to, tag int, f []float64, ints []int) error {
	return c.send(cat, to, tag, f, ints, false)
}

// Recv blocks until a message from rank `from` with the given tag is
// available and returns it. Matching is FIFO per (from, tag). Recv fails
// with RankFailedError if the source dies before a matching message arrives
// and ErrKilled if the receiver itself is killed.
func (c *Comm) Recv(from, tag int) (Msg, error) {
	if from < 0 || from >= c.rt.size {
		return Msg{}, fmt.Errorf("cluster: Recv from invalid rank %d", from)
	}
	key := msgKey{from, tag}
	if q := c.pending[key]; len(q) > 0 {
		m := q[0]
		if len(q) == 1 {
			delete(c.pending, key)
		} else {
			c.pending[key] = q[1:]
		}
		return m, nil
	}
	src := c.rt.nodeAt(from)
	for {
		// Drain everything already delivered before blocking.
		select {
		case m := <-c.node.inbox:
			if m.From == from && m.Tag == tag {
				return m, nil
			}
			k := msgKey{m.From, m.Tag}
			c.pending[k] = append(c.pending[k], m)
			continue
		default:
		}
		select {
		case m := <-c.node.inbox:
			if m.From == from && m.Tag == tag {
				return m, nil
			}
			k := msgKey{m.From, m.Tag}
			c.pending[k] = append(c.pending[k], m)
		case <-c.node.dead:
			return Msg{}, ErrKilled
		case <-c.rt.abort:
			return Msg{}, c.rt.abortErr()
		case <-src.peerDead:
			// The source died; drain any message it managed to send first.
			for {
				select {
				case m := <-c.node.inbox:
					if m.From == from && m.Tag == tag {
						return m, nil
					}
					k := msgKey{m.From, m.Tag}
					c.pending[k] = append(c.pending[k], m)
					continue
				default:
				}
				break
			}
			if q := c.pending[key]; len(q) > 0 {
				m := q[0]
				if len(q) == 1 {
					delete(c.pending, key)
				} else {
					c.pending[key] = q[1:]
				}
				return m, nil
			}
			return Msg{}, &RankFailedError{Rank: from}
		}
	}
}

// SendOwned is Send without the defensive payload copy: the caller
// relinquishes ownership of the slices (it must not read or write them
// afterwards, whether or not the call succeeds). The hot SpMV and
// collective paths use it for freshly built payloads — combined with
// GetFloats/Recycle on a pooled transport, the steady-state loop sends
// without allocating.
func (c *Comm) SendOwned(cat Category, to, tag int, f []float64, ints []int) error {
	return c.send(cat, to, tag, f, ints, true)
}

// SendFloats is shorthand for Send with only a float payload.
func (c *Comm) SendFloats(cat Category, to, tag int, f []float64) error {
	return c.Send(cat, to, tag, f, nil)
}

// RecvFloats receives a message and returns only its float payload.
func (c *Comm) RecvFloats(from, tag int) ([]float64, error) {
	m, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return m.F, nil
}
