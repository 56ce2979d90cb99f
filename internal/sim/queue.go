package sim

// This file implements the engine's event queue: a four-level hierarchical
// timer wheel in front of a binary heap, with a free-list pool of event
// objects and lazy cancellation.
//
// The wheel serves the dominant scheduling pattern — After(d) with small d
// relative to the current time — in O(1) per push and pop. Each level has
// 64 slots; level l buckets events whose absolute time differs from the
// wheel anchor only in bit group [6l, 6(l+1)), so the four levels together
// cover the next ~16.8 ms of virtual time (2^24 ns) and everything beyond
// that "region" waits in the heap. A per-level occupancy bitmap (one
// uint64 per level) turns find-next-slot into a TrailingZeros instruction,
// so advancing the clock across empty stretches costs O(levels), not
// O(slots skipped).
//
// Ordering contract (load-bearing for byte-identical output): events pop
// in exactly (when, seq) order, the same total order the plain heap gave.
// The argument:
//
//   - A level-0 slot holds events of a single timestamp (level 0 is
//     1 ns-granular), appended in push order. Every push carries a larger
//     seq than all queued events, heap drains hand over events in
//     (when, seq) order, and cascades preserve relative order — so each
//     level-0 slot list is always seq-sorted.
//   - Within a level, a slot with a smaller index (relative to the anchor)
//     holds strictly earlier times; across levels, every level-l event
//     precedes every level-(l+1) event, and every wheel event precedes
//     every heap event, because they differ from the anchor in
//     progressively higher bit groups while times never run backwards.
//
// Cancellation is lazy: Timer.Cancel marks the event and it is skipped
// (and recycled) when popped. So that cancel-heavy workloads — the
// reliable transport cancels one retransmit timer per acknowledged packet
// — cannot bloat the queue with dead events, a compaction pass sweeps the
// wheel and heap once cancelled events outnumber live ones (and exceed a
// floor that keeps tiny queues compaction-free).
//
// Event objects are pooled on an intrusive free list. A recycled event
// bumps its generation counter, which is how Timer handles detect that
// their event has fired or been reused (Cancel after fire is a no-op, per
// the Timer contract). The pool, slot arrays and heap backing are owned by
// the engine and reused across Run calls, so steady-state scheduling
// allocates nothing.

import (
	"container/heap"
	"math/bits"
)

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// regionShift is the bit position above which an event is beyond the
	// wheel horizon and parks in the heap.
	regionShift = wheelLevels * wheelBits
	// compactMinDead is the floor before cancelled events can trigger a
	// compaction sweep.
	compactMinDead = 64
)

// event is a scheduled callback. Exactly one of fn, argFn, thread is set:
// fn is a plain closure, argFn+arg is the closure-free form (AtArg), and
// thread marks a simthread's wake.
type event struct {
	when Time
	seq  uint64

	fn     func()
	argFn  func(interface{})
	arg    interface{}
	thread *Thread

	// next links the slot list while queued and the free list while
	// pooled (an event is never in both).
	next *event

	// gen increments every time the object returns to the pool; Timer
	// handles snapshot it to detect fire/reuse.
	gen       uint32
	cancelled bool
}

// slot is one bucket of a wheel level: a FIFO list with O(1) append.
type slot struct {
	head, tail *event
}

// eventQueue is the engine's pending-event structure.
type eventQueue struct {
	// wt is the wheel anchor: the time of the most recently popped event
	// (it also ratchets to window starts while the pop path cascades).
	// All queued events have when >= wt.
	wt Time

	live int // queued, non-cancelled events
	dead int // queued, cancelled events awaiting pop or compaction

	bitmap [wheelLevels]uint64
	slots  [wheelLevels][wheelSlots]slot
	far    eventHeap // events beyond the current 2^24 ns region

	free  *event // recycled event objects
	nfree int
}

// newEvent returns a pooled (or fresh) event object.
func (q *eventQueue) newEvent() *event {
	if ev := q.free; ev != nil {
		q.free = ev.next
		q.nfree--
		ev.next = nil
		return ev
	}
	//simcheck:allow hotalloc pool refill slow path; steady state reuses recycled events
	return &event{}
}

// recycle clears an event's references and returns it to the pool.
func (q *eventQueue) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.thread = nil
	ev.cancelled = false
	ev.next = q.free
	q.free = ev
	q.nfree++
}

// len returns the number of queued events, cancelled ones included.
func (q *eventQueue) len() int { return q.live + q.dead }

// push enqueues ev. ev.when must be >= q.wt (the engine clamps).
func (q *eventQueue) push(ev *event) {
	q.live++
	q.insert(ev)
}

// level classifies when against the anchor: 0..3 for the wheel, -1 for
// the far heap.
func (q *eventQueue) level(when Time) int {
	d := uint64(when ^ q.wt)
	switch {
	case d>>wheelBits == 0:
		return 0
	case d>>(2*wheelBits) == 0:
		return 1
	case d>>(3*wheelBits) == 0:
		return 2
	case d>>(4*wheelBits) == 0:
		return 3
	}
	return -1
}

// insert places ev into its wheel slot or the far heap.
func (q *eventQueue) insert(ev *event) {
	l := q.level(ev.when)
	if l < 0 {
		heap.Push(&q.far, ev)
		return
	}
	s := int(ev.when>>(uint(l)*wheelBits)) & wheelMask
	sl := &q.slots[l][s]
	ev.next = nil
	if sl.tail == nil {
		sl.head = ev
	} else {
		sl.tail.next = ev
	}
	sl.tail = ev
	q.bitmap[l] |= 1 << uint(s)
}

// pop removes and returns the earliest live event in (when, seq) order,
// recycling any cancelled events it passes. It returns nil when the queue
// is empty.
//
//simcheck:hotpath every simulated event passes through here; stays allocation-free
func (q *eventQueue) pop() *event {
	for {
		ev := q.popAny()
		if ev == nil {
			return nil
		}
		if ev.cancelled {
			q.dead--
			q.recycle(ev)
			continue
		}
		q.live--
		return ev
	}
}

// popAny removes the earliest queued event, cancelled or not.
func (q *eventQueue) popAny() *event {
	for {
		if b := q.bitmap[0]; b != 0 {
			s := bits.TrailingZeros64(b)
			sl := &q.slots[0][s]
			ev := sl.head
			sl.head = ev.next
			if sl.head == nil {
				sl.tail = nil
				q.bitmap[0] &^= 1 << uint(s)
			}
			ev.next = nil
			q.wt = ev.when
			return ev
		}
		if !q.refill() {
			return nil
		}
	}
}

// refill advances the anchor to the next occupied window and cascades its
// events toward level 0. It reports whether any events remain.
func (q *eventQueue) refill() bool {
	for l := 1; l < wheelLevels; l++ {
		b := q.bitmap[l]
		if b == 0 {
			continue
		}
		s := bits.TrailingZeros64(b)
		sl := &q.slots[l][s]
		head := sl.head
		sl.head, sl.tail = nil, nil
		q.bitmap[l] &^= 1 << uint(s)
		// Advance the anchor to the start of this slot's window; every
		// remaining event is at or after it.
		shift := uint(l) * wheelBits
		q.wt = q.wt&^(Time(1)<<(shift+wheelBits)-1) | Time(s)<<shift
		for head != nil {
			next := head.next
			q.insert(head)
			head = next
		}
		return true
	}
	if len(q.far) == 0 {
		return false
	}
	// Enter the region of the earliest far event and pull that whole
	// region into the wheel. Heap pops come out in (when, seq) order, so
	// slot lists stay sorted.
	q.wt = q.far[0].when
	region := q.wt >> regionShift
	for len(q.far) > 0 && q.far[0].when>>regionShift == region {
		q.insert(heap.Pop(&q.far).(*event))
	}
	return true
}

// cancelEvent lazily cancels a queued event and compacts the queue when
// dead events dominate.
func (q *eventQueue) cancelEvent(ev *event) {
	if ev.cancelled {
		return
	}
	ev.cancelled = true
	q.live--
	q.dead++
	if q.dead >= compactMinDead && q.dead > q.live {
		q.compact()
	}
}

// compact removes every cancelled event from the wheel and heap, recycling
// them, and restores the heap invariant. Relative order of survivors is
// preserved (slot lists are filtered in place; the heap's pop order
// depends only on the (when, seq) total order, not its array layout), so
// compaction can never change simulation results.
func (q *eventQueue) compact() {
	for l := 0; l < wheelLevels; l++ {
		b := q.bitmap[l]
		for b != 0 {
			s := bits.TrailingZeros64(b)
			b &^= 1 << uint(s)
			sl := &q.slots[l][s]
			var head, tail *event
			for ev := sl.head; ev != nil; {
				next := ev.next
				if ev.cancelled {
					q.recycle(ev)
				} else {
					ev.next = nil
					if tail == nil {
						head = ev
					} else {
						tail.next = ev
					}
					tail = ev
				}
				ev = next
			}
			sl.head, sl.tail = head, tail
			if head == nil {
				q.bitmap[l] &^= 1 << uint(s)
			}
		}
	}
	kept := q.far[:0]
	for _, ev := range q.far {
		if ev.cancelled {
			q.recycle(ev)
		} else {
			//simcheck:allow hotalloc in-place filter never grows; compaction is amortized
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(q.far); i++ {
		q.far[i] = nil
	}
	q.far = kept
	heap.Init(&q.far)
	q.dead = 0
}

// drain recycles every queued event (engine shutdown): pending closures
// and thread references are released, and the objects stay pooled for a
// subsequent Run.
func (q *eventQueue) drain() {
	for l := 0; l < wheelLevels; l++ {
		b := q.bitmap[l]
		for b != 0 {
			s := bits.TrailingZeros64(b)
			b &^= 1 << uint(s)
			sl := &q.slots[l][s]
			for ev := sl.head; ev != nil; {
				next := ev.next
				q.recycle(ev)
				ev = next
			}
			sl.head, sl.tail = nil, nil
		}
		q.bitmap[l] = 0
	}
	for i, ev := range q.far {
		q.recycle(ev)
		q.far[i] = nil
	}
	q.far = q.far[:0]
	q.live, q.dead = 0, 0
}

// eventHeap is the far-future fallback, ordered by (when, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
