// Package r is the reply-slot golden package: it models a server that
// answers each request through an interface-typed send, and pins which
// ways of passing the answer the analyzer flags. A local variable whose
// address is boxed into an interface escapes, so it is a heap allocation
// per call although no allocating construct is written.
package r

type reply struct {
	ok  bool
	val int
}

type server struct {
	slots []reply // one per client, reused for every answer
}

// send models a blocking send: the payload is an interface.
func send(dst int, payload interface{}) { _, _ = dst, payload }

// sendAll models a variadic interface parameter.
func sendAll(payloads ...interface{}) { _ = payloads }

// fill takes a typed pointer: the local's address is not boxed.
func fill(r *reply, v int) { r.ok, r.val = true, v }

// serve answers into the asking client's slot: no finding.
//
//simcheck:hotpath
func (s *server) serve(from, v int) {
	r := &s.slots[from]
	fill(r, v)
	send(from, r)
	send(from, &s.slots[from])
}

// serveFresh is the shape serve replaced: each answer is a new local whose
// address is boxed, once through a plain and once through a variadic
// interface parameter. Filling a local through a typed pointer is fine.
//
//simcheck:hotpath
func (s *server) serveFresh(from, v int) {
	var r reply
	fill(&r, v)
	send(from, &r) // want `address of local r passed as an interface \(the variable escapes to the heap\) on the hot path \(reachable from //simcheck:hotpath root .*serveFresh\)`
	var q reply
	sendAll(&q) // want `address of local q passed as an interface`
}
