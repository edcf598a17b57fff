// Package sim provides a deterministic discrete-event simulation kernel.
//
// All substrates in this repository (clusters, resource managers, cloud
// services, pipelines) advance a shared virtual clock by scheduling events on
// an Engine. Determinism is guaranteed by a strict ordering of events:
// primarily by virtual time, secondarily by a monotonically increasing
// sequence number assigned at scheduling time. Simulating hours of virtual
// time over thousands of nodes therefore takes milliseconds of wall time and
// produces bit-identical results across runs.
//
// The event core is the hottest path in the repository: every task start,
// task end, fault, retry timer, and sample tick is one Event. Three
// structural choices keep it fast without weakening the ordering contract:
//
//   - the pending queue is a typed 4-ary min-heap on (time, seq) — no
//     interface boxing, no per-comparison dynamic dispatch, and no heap-index
//     bookkeeping (Cancel only sets a flag; cancelled events are discarded
//     when popped, exactly as before);
//   - Events are allocated from slabs of eventSlabSize, so scheduling costs
//     one heap allocation per slab instead of one per event, while handles
//     stay ordinary *Event pointers with unchanged Cancel semantics (a slab
//     is never reused, so a stale handle can never alias a newer event);
//   - Run/RunUntil pop all events sharing the head timestamp as one batch,
//     firing them FIFO by seq; events scheduled during the batch carry larger
//     sequence numbers and therefore sort after it, so the observable order
//     is identical to pop-one-at-a-time.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in seconds from the start of the
// simulation. Using float64 seconds (rather than time.Duration) matches the
// granularity the paper reports (seconds to hours) and keeps arithmetic on
// rates and utilization integrals simple.
type Time float64

// Duration converts t to a time.Duration for display purposes.
func (t Time) Duration() time.Duration { return time.Duration(float64(t) * float64(time.Second)) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Never is a sentinel meaning "no scheduled time".
const Never = Time(math.MaxFloat64)

// eventSlabSize is how many Events one allocation hands out. Amortizing the
// allocation is the whole point; the value only trades retained-slab
// granularity against allocation frequency.
const eventSlabSize = 256

// Event is a callback scheduled to run at a virtual time. Events live in
// engine-owned slabs; callers hold *Event only to Cancel or inspect it.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
}

// Cancel marks the event so it will not fire. Cancelling an already-fired
// event is a no-op.
func (e *Event) Cancel() { e.cancel = true }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancel }

// Time returns the virtual time the event is scheduled for.
func (e *Event) Time() Time { return e.at }

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	queue  heap4
	fired  uint64
	halted bool

	// batch holds the events popped together for one timestamp; batchNext is
	// the first not-yet-fired index. A halted or deadline-bounded RunUntil
	// may leave a remainder here, which the next Run/RunUntil/Step drains
	// before touching the queue.
	batch     []*Event
	batchNext int

	// slab is the tail of the current Event slab; alloc hands out its
	// elements sequentially and replaces it when exhausted. Slabs are never
	// reused, so escaped *Event handles keep their pre-pooling semantics.
	slab []Event `statediff:"keep"`

	// Sharded pending queue (see sharded.go). shards == nil means the
	// monolithic heap above is in use; otherwise entries are routed by seq
	// across the per-shard heaps, shardCur is the shard whose head is the
	// global minimum, shardBar the smallest key any other shard holds, and
	// shardN the total queued count.
	shards   []heap4
	shardCur int
	shardBar entry
	shardN   int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its just-constructed state (clock at zero, no
// history, nothing pending) while retaining allocated capacity: the heap
// backing arrays, the batch buffer, and the shard layout all survive, and the
// current slab tail keeps being consumed. Slabs are still never reused — an
// Event handed out before Reset is never handed out again — so stale *Event
// handles held across runs keep the no-aliasing Cancel semantics. The warm
// contract is exact: an event population scheduled after Reset receives the
// same seqs, pops in the same order, and fires at the same times as on a
// fresh engine.
func (e *Engine) Reset() {
	e.now, e.seq, e.fired, e.halted = 0, 0, 0, false
	clear(e.batch)
	e.batch = e.batch[:0]
	e.batchNext = 0
	e.queue.reset()
	if e.shards != nil {
		for i := range e.shards {
			e.shards[i].reset()
		}
		e.shardCur, e.shardBar, e.shardN = 0, noEntry, 0
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return e.qlen() + len(e.batch) - e.batchNext }

func (e *Engine) alloc() *Event {
	if len(e.slab) == 0 {
		e.slab = make([]Event, eventSlabSize)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.qpush(entry{at: t, seq: e.seq, ev: ev})
	return ev
}

// After schedules fn to run d seconds of virtual time from now. Negative
// delays are clamped to zero.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Halt stops the current Run/RunUntil after the in-flight event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue drains or Halt is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Never) }

// RunUntil executes events with timestamps <= deadline, advancing the clock.
// Events scheduled beyond the deadline stay queued; the clock is left at
// min(deadline, time of last fired event) — it never exceeds the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for !e.halted {
		if e.batchNext < len(e.batch) {
			ev := e.batch[e.batchNext]
			if ev.at > deadline {
				// Only possible when a halted batch is resumed with an
				// earlier deadline; the remainder stays for a later run.
				break
			}
			e.batch[e.batchNext] = nil
			e.batchNext++
			if ev.cancel {
				continue
			}
			e.now = ev.at
			e.fired++
			ev.fn()
			continue
		}
		e.batch = e.batch[:0]
		e.batchNext = 0
		if e.qlen() == 0 {
			break
		}
		head := e.qmin()
		if head.at > deadline {
			break
		}
		// Pop the whole timestamp cohort at once. Successive pops yield
		// ascending seq, so the batch is already in FIFO firing order;
		// events scheduled while it fires get larger seqs and sort after.
		at := head.at
		for e.qlen() > 0 && e.qmin().at == at {
			e.batch = append(e.batch, e.qpop().ev)
		}
	}
	if deadline != Never && e.now < deadline && !e.halted {
		e.now = deadline
	}
	return e.now
}

// Step fires exactly one non-cancelled event, if any, and reports whether one
// fired. It drains any batch remainder left by a halted RunUntil first.
func (e *Engine) Step() bool {
	for {
		var ev *Event
		if e.batchNext < len(e.batch) {
			ev = e.batch[e.batchNext]
			e.batch[e.batchNext] = nil
			e.batchNext++
		} else {
			if len(e.batch) > 0 {
				e.batch = e.batch[:0]
				e.batchNext = 0
			}
			if e.qlen() == 0 {
				return false
			}
			ev = e.qpop().ev
		}
		if ev.cancel {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
}
