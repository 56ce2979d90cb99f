package telemetry

import "mpicontend/internal/machine"

// Grant describes one critical-section acquisition at the moment a thread
// becomes the owner. It carries everything the §4.3 estimators need.
type Grant struct {
	At       int64
	ThreadID int
	Place    machine.Place
	// Waiters holds the placements of the threads waiting for the lock
	// at the grant (the new owner excluded), in request order. It is
	// only valid during the observer call.
	Waiters []machine.Place
}

// WaitSet owns the waiting-set rule for one lock: a thread is waiting at
// a grant if it asked for the lock strictly before the grant's virtual
// time and has not been granted yet. A request made at the grant instant
// itself is not a waiter, so the set does not depend on the order in which
// the engine runs same-time events. The zero value is empty and ready.
type WaitSet struct {
	reqs    []waitReq
	waiters []machine.Place // scratch for Grant.Waiters, reused per grant
}

type waitReq struct {
	id    int
	place machine.Place
	at    int64
}

// Request records that thread id, placed at place, asked for the lock at
// virtual time at.
func (s *WaitSet) Request(id int, place machine.Place, at int64) {
	s.reqs = grow(s.reqs, waitReq{id: id, place: place, at: at})
}

// Grant retires thread id's request and describes its acquisition at
// virtual time at. The returned Waiters alias scratch storage that the
// next Grant call overwrites.
func (s *WaitSet) Grant(id int, place machine.Place, at int64) Grant {
	ws, n := s.waiters[:0], 0
	for _, r := range s.reqs {
		if r.id == id {
			continue
		}
		s.reqs[n] = r
		n++
		if r.at < at {
			ws = grow(ws, r.place)
		}
	}
	s.reqs, s.waiters = s.reqs[:n], ws
	return Grant{At: at, ThreadID: id, Place: place, Waiters: ws}
}

// grow appends v to s.
func grow[T any](s []T, v T) []T {
	//simcheck:allow hotalloc the wait set keeps its arrays; they grow only to the most requests ever open at once
	return append(s, v)
}
