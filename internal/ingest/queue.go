package ingest

import (
	"sync"
	"time"

	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// item is one queued slice plus its admission bookkeeping.
type item struct {
	slice *sptensor.Tensor
	// admitted is when the slice entered the queue; the lag deadline
	// (Config.MaxLag) is measured from it.
	admitted time.Time
	// coalesced counts how many later slices were merged into this one
	// under the Coalesce policy.
	coalesced int
	// walSeq is the WAL sequence number of a slice that took the spill
	// tier (0 for slices that entered the queue directly). The consumer
	// tracks the highest fully-consumed walSeq; every checkpoint
	// carries it, so replay after a crash is exactly-once.
	walSeq uint64
}

// queue is the bounded, policy-aware buffer between producer and
// consumer. It is a plain mutex/cond design rather than a channel
// because three of the four policies need to inspect or mutate the
// buffered backlog (evict the head, merge into the tail) — operations
// a channel cannot express.
type queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []item
	capacity int
	policy   ShedPolicy
	closed   bool
	// killed is the emergency stop: refillers give up instead of
	// waiting for space and pop stops delivering.
	killed bool
	// refillers counts registered backlog refillers (the spill tier's
	// reader). While one is registered, pop treats an empty closed
	// queue as "more coming" rather than "done" — the drain must
	// consume the durable backlog too.
	refillers int
	clock     func() time.Time
	ov        *trace.Overload
}

func newQueue(capacity int, policy ShedPolicy, clock func() time.Time, ov *trace.Overload) *queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &queue{capacity: capacity, policy: policy, clock: clock, ov: ov}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// push admits one slice under the queue's shed policy. It reports
// whether the slice was enqueued; a false return means the slice was
// accounted as shed or coalesced (the counters are already updated).
// Under the Block policy push waits for space; a close during the wait
// sheds the slice (drain cause).
func (q *queue) push(x *sptensor.Tensor) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.ov.ShedDrain.Add(1)
		return false
	}
	if len(q.buf) == q.capacity {
		switch q.policy {
		case Block:
			for len(q.buf) == q.capacity && !q.closed {
				q.notFull.Wait()
			}
			if q.closed {
				q.ov.ShedDrain.Add(1)
				return false
			}
		case DropNewest:
			q.ov.ShedNewest.Add(1)
			return false
		case DropOldest:
			q.buf = q.buf[1:]
			q.ov.ShedOldest.Add(1)
		case Coalesce:
			tail := &q.buf[len(q.buf)-1]
			if err := tail.slice.Merge(x); err != nil {
				// A window whose shape disagrees with the queued
				// backlog cannot be folded in; shed it rather than
				// corrupt the neighbour.
				q.ov.ShedNewest.Add(1)
				return false
			}
			q.ov.CoalescedEvents.Add(int64(x.NNZ()))
			tail.coalesced++
			q.ov.Coalesced.Add(1)
			return false
		}
	}
	q.buf = append(q.buf, item{slice: x, admitted: q.clock()})
	q.ov.RaiseHighWater(int64(len(q.buf)))
	q.notEmpty.Signal()
	return true
}

// tryPush enqueues x only when there is room and admissions are open,
// with no shed-policy accounting: a false return means the caller (the
// spill tier) keeps responsibility for the slice.
func (q *queue) tryPush(x *sptensor.Tensor) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.buf) == q.capacity {
		return false
	}
	q.buf = append(q.buf, item{slice: x, admitted: q.clock()})
	q.ov.RaiseHighWater(int64(len(q.buf)))
	q.notEmpty.Signal()
	return true
}

// refillPush re-admits a slice read back from the durable backlog. It
// waits for space like Block does, but ignores the admission close —
// a graceful drain keeps refilling until the backlog is flushed. A
// false return means the queue was killed (emergency stop) and the
// item was not enqueued; it stays durable on disk.
func (q *queue) refillPush(it item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == q.capacity && !q.killed {
		q.notFull.Wait()
	}
	if q.killed {
		return false
	}
	q.buf = append(q.buf, it)
	q.ov.RaiseHighWater(int64(len(q.buf)))
	q.notEmpty.Signal()
	return true
}

// addRefiller registers a backlog refiller; pop will not report
// exhaustion while one is registered.
func (q *queue) addRefiller() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillers++
}

// refillerDone deregisters a refiller and wakes the consumer so a
// drain can complete.
func (q *queue) refillerDone() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillers--
	q.notEmpty.Broadcast()
}

// pop removes the oldest queued slice, blocking until one is available
// or the queue is closed, refiller-free and empty (ok=false).
func (q *queue) pop() (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.killed && !(q.closed && q.refillers == 0) {
		q.notEmpty.Wait()
	}
	if len(q.buf) == 0 {
		return item{}, false
	}
	it := q.buf[0]
	q.buf = q.buf[1:]
	q.notFull.Signal()
	return it, true
}

// tryPop is pop without blocking, used when discarding the backlog
// after a drain deadline.
func (q *queue) tryPop() (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 {
		return item{}, false
	}
	it := q.buf[0]
	q.buf = q.buf[1:]
	q.notFull.Signal()
	return it, true
}

// close stops admissions; queued slices remain poppable. Blocked
// producers wake and account their slice as drain-shed.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// kill is the emergency stop: admissions close AND refillers stop
// waiting for space. Queued items remain poppable for accounting.
func (q *queue) kill() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.killed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// isClosed reports whether close has been called.
func (q *queue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// depth returns the current backlog length.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}
