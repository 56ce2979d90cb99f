package sim

// This file implements the engine's event queue: one hierarchical timer
// wheel with enough levels for every non-negative Time (Varghese & Lauck,
// "Hashed and Hierarchical Timing Wheels", scheme 7), with a free-list
// pool of event objects.
//
// The wheel serves the dominant scheduling pattern — After(d) with small d
// relative to the current time — in O(1) per push and pop. Each level has
// 64 slots; level l buckets events whose absolute time differs from the
// wheel anchor first (from the top) in bit group [6l, 6(l+1)), so eleven
// levels cover all 63 bits of a non-negative Time. A per-level occupancy
// bitmap (one uint64 per level) turns find-next-slot into a TrailingZeros
// instruction, so advancing the clock across empty stretches costs
// O(levels), not O(slots skipped).
//
// Ordering contract (load-bearing for byte-identical output): events pop
// in exactly (when, seq) order. The argument:
//
//   - A level-0 slot holds events of a single timestamp (level 0 is
//     1 ns-granular). Every push carries a larger seq than all queued
//     events and appends at a slot's tail, a cascade moves a slot's list
//     in order into lower levels that are empty, and an unlink keeps the
//     others in order — so each level-0 slot list is always seq-sorted.
//   - Within a level, a slot with a smaller index (relative to the anchor)
//     holds strictly earlier times; across levels, every level-l event
//     precedes every level-(l+1) event, because they differ from the
//     anchor in progressively higher bit groups while times never run
//     backwards.
//
// Slot lists are doubly linked and each queued event records its level and
// slot, so Timer.Cancel unlinks and recycles its event in O(1).
//
// Event objects are pooled on an intrusive free list. A recycled event
// bumps its generation counter, which is how Timer handles detect that
// their event has fired, been cancelled or been reused (Cancel after fire
// is a no-op, per the Timer contract). The pool and slot arrays are owned
// by the engine and reused across Run calls, so steady-state scheduling
// allocates nothing.

import "math/bits"

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = (63 + wheelBits - 1) / wheelBits // 11: every non-negative Time
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

	// next and prev link the slot list while queued; next alone links the
	// free list while pooled (an event is never in both).
	next, prev *event

	// gen increments every time the object returns to the pool; Timer
	// handles snapshot it to detect fire, cancel and reuse.
	gen uint32
	// level and slot locate the queued event's slot list.
	level, slot uint8
}

// slot is one bucket of a wheel level: a FIFO list with O(1) append and
// unlink.
type slot struct {
	head, tail *event
}

// eventQueue is the engine's pending-event structure.
type eventQueue struct {
	// wt is the wheel anchor: the time of the most recently popped event
	// (it also ratchets to window starts while the pop path cascades).
	// All queued events have when >= wt.
	wt Time

	n int // queued events

	bitmap [wheelLevels]uint64
	slots  [wheelLevels][wheelSlots]slot

	free *event // recycled event objects
}

// newEvent returns a pooled (or fresh) event object.
func (q *eventQueue) newEvent() *event {
	if ev := q.free; ev != nil {
		q.free = ev.next
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
	ev.next = q.free
	q.free = ev
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return q.n }

// push enqueues ev. ev.when must be >= q.wt (the engine clamps).
func (q *eventQueue) push(ev *event) {
	q.n++
	q.insert(ev)
}

// insert appends ev to its slot: the level is the bit group in which
// ev.when first differs from the anchor.
func (q *eventQueue) insert(ev *event) {
	l := uint(bits.Len64(uint64(ev.when^q.wt)|1)-1) / wheelBits
	s := uint(ev.when>>(l*wheelBits)) & wheelMask
	sl := &q.slots[l][s]
	ev.level, ev.slot = uint8(l), uint8(s)
	ev.next = nil
	ev.prev = sl.tail
	if sl.tail == nil {
		sl.head = ev
	} else {
		sl.tail.next = ev
	}
	sl.tail = ev
	q.bitmap[l] |= 1 << s
}

// unlink removes a queued ev from its slot list. A head's prev is stale
// (pop leaves it), so only a non-head event reads its prev.
func (q *eventQueue) unlink(ev *event) {
	sl := &q.slots[ev.level][ev.slot]
	if sl.head == ev {
		sl.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if sl.tail == ev {
		if sl.head == nil {
			sl.tail = nil
			q.bitmap[ev.level] &^= 1 << ev.slot
		} else {
			sl.tail = ev.prev
		}
	} else {
		ev.next.prev = ev.prev
	}
}

// pop removes and returns the earliest event in (when, seq) order. It
// returns nil when the queue is empty.
//
//simcheck:hotpath every simulated event passes through here; stays allocation-free
func (q *eventQueue) pop() *event {
	for {
		if b := q.bitmap[0]; b != 0 {
			// Unlink the head inline: it needs no prev, and a call to
			// unlink here measured about 3% slower per event.
			s := bits.TrailingZeros64(b)
			sl := &q.slots[0][s]
			ev := sl.head
			if sl.head = ev.next; sl.head == nil {
				sl.tail = nil
				q.bitmap[0] &^= 1 << uint(s)
			}
			q.n--
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
	return false
}

// cancel unlinks a queued event and recycles it.
func (q *eventQueue) cancel(ev *event) {
	q.unlink(ev)
	q.n--
	q.recycle(ev)
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
	q.n = 0
}
