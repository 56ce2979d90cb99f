package mpi

// Small collectives built on point-to-point, for the application kernels.
// They use the reserved collective context so their traffic never matches
// user receives. Each collective must be called by exactly one thread per
// rank of the communicator, like an MPI process-level collective.

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ceil(log2 n) rounds): BarrierErr with the error dropped, as
// the handler already ran at entry or inside Waitall.
func (th *Thread) Barrier(c *Comm) {
	_ = th.BarrierErr(c)
}

// AllreduceSum reduces val with + across ranks and returns the total on
// every rank (binomial reduce to rank 0, then binomial broadcast):
// AllreduceSumErr with the error dropped.
func (th *Thread) AllreduceSum(c *Comm, val int64) int64 {
	v, _ := th.AllreduceSumErr(c, val)
	return v
}

// Bcast broadcasts the payload from root and returns it on every rank
// (binomial tree relative to root).
func (th *Thread) Bcast(c *Comm, root int, bytes int64, payload interface{}) interface{} {
	n := c.size
	if n <= 1 {
		return payload
	}
	cc := c.collComm()
	me := (c.Rank(th) - root + n) % n // virtual rank
	top := 1
	for top < n {
		top <<= 1
	}
	v := payload
	for k := top >> 1; k >= 1; k >>= 1 {
		tag := 4000 + k
		if me&(k-1) == 0 {
			if me&k != 0 {
				src := ((me - k) + root) % n
				v = th.Recv(cc, src, tag)
			} else if me+k < n {
				dst := ((me + k) + root) % n
				th.Send(cc, dst, tag, bytes, v)
			}
		}
	}
	return v
}

// Gather collects each rank's payload at root; root receives a slice
// indexed by rank (others get nil).
func (th *Thread) Gather(c *Comm, root int, bytes int64, payload interface{}) []interface{} {
	cc := c.collComm()
	me := c.Rank(th)
	if me != root {
		th.Send(cc, root, 5000+me, bytes, payload)
		return nil
	}
	out := make([]interface{}, c.size)
	out[root] = payload
	for r := 0; r < c.size; r++ {
		if r != root {
			out[r] = th.Recv(cc, r, 5000+r)
		}
	}
	return out
}
