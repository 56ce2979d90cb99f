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

// AllreduceMax reduces val with max across ranks: AllreduceMaxErr with
// the error dropped.
func (th *Thread) AllreduceMax(c *Comm, val int64) int64 {
	v, _ := th.AllreduceMaxErr(c, val)
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

// AllgatherInt64 gathers one int64 from every rank and returns the slice
// indexed by rank, on every rank (gather to 0 + broadcast).
func (th *Thread) AllgatherInt64(c *Comm, val int64) []int64 {
	me := c.Rank(th)
	out := th.Gather(c, 0, 8, val)
	vals := make([]int64, c.size)
	if me == 0 {
		for i, v := range out {
			vals[i] = v.(int64)
		}
	}
	got := th.Bcast(c, 0, int64(8*c.size), vals)
	return got.([]int64)
}

// Alltoall exchanges one payload with every rank: sendbuf[i] goes to rank
// i, and the returned slice holds what rank i sent to this rank. Each rank
// must pass a slice of length Comm.Size(). bytesEach is the modelled size
// of each element.
func (th *Thread) Alltoall(c *Comm, bytesEach int64, sendbuf []interface{}) []interface{} {
	if len(sendbuf) != c.size {
		panic("mpi: Alltoall sendbuf length must equal communicator size")
	}
	cc := c.collComm()
	me := c.Rank(th)
	recv := make([]interface{}, c.size)
	recv[me] = sendbuf[me]
	var rs []*Request
	for r := 0; r < c.size; r++ {
		if r == me {
			continue
		}
		rs = append(rs, th.IrecvN(cc, r, 6000+r, -1, &recv[r]))
	}
	for i := 1; i < c.size; i++ {
		dst := (me + i) % c.size
		rs = append(rs, th.Isend(cc, dst, 6000+me, bytesEach, sendbuf[dst]))
	}
	th.Waitall(rs) //simcheck:allow errdrop value collectives have no error path; the handler runs inside Waitall
	return recv
}

// ReduceSum reduces val with + to the root rank; non-roots receive 0.
func (th *Thread) ReduceSum(c *Comm, root int, val int64) int64 {
	// Gather-based reduction via the binomial pattern rooted at 0 then a
	// point-to-point forward if the root differs (n is small here).
	total := th.AllreduceSum(c, val)
	if c.Rank(th) == root {
		return total
	}
	return 0
}
