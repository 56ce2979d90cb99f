package mpi

// Error-propagating collectives: they return the first failure, which
// recovery code needs under MPI_ERRORS_RETURN. Barrier, AllreduceSum and
// AllreduceMax in coll.go are these with the error dropped (acceptable
// under MPI_ERRORS_ARE_FATAL, where the handler panics first).
//
// Deadline audit (see also the regression test in ft_test.go): collectives
// are built entirely on the point-to-point issue paths, so armDeadline —
// called from Isend/IrecvN through Proc.issue — covers every collective
// round. A collective
// against a silent peer therefore times out with ErrTimeout per-request;
// the gap this file closes is only the *propagation* of that error to the
// collective's caller.

// BarrierErr is Barrier with error propagation: it fails fast with
// ErrRevoked/ErrProcFailed at entry when the fault-tolerance plane knows
// the collective cannot complete, and returns the first request error
// (e.g. ErrTimeout against a silent peer) from any round.
func (th *Thread) BarrierErr(c *Comm) error {
	if err := c.collCheck(th); err != nil {
		return err
	}
	n := c.size
	if n <= 1 {
		return nil
	}
	cc := c.collComm()
	me := c.Rank(th)
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		tag := 1000 + round
		if _, err := th.sendrecvE(cc, dst, tag, 1, nil, src, tag); err != nil {
			return err
		}
	}
	return nil
}

// AllreduceSumErr is AllreduceSum with error propagation.
func (th *Thread) AllreduceSumErr(c *Comm, val int64) (int64, error) {
	return th.allreduceErr(c, val, func(a, b int64) int64 { return a + b })
}

// AllreduceMaxErr is AllreduceMax with error propagation.
func (th *Thread) AllreduceMaxErr(c *Comm, val int64) (int64, error) {
	return th.allreduceErr(c, val, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllreduceMinErr reduces val with min across ranks, with error
// propagation (used by checkpoint restore to agree on the rollback
// iteration).
func (th *Thread) AllreduceMinErr(c *Comm, val int64) (int64, error) {
	return th.allreduceErr(c, val, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// allreduceErr is the binomial reduce to rank 0 followed by the binomial
// broadcast from rank 0; it stops at the first request error.
func (th *Thread) allreduceErr(c *Comm, val int64, op func(a, b int64) int64) (int64, error) {
	if err := c.collCheck(th); err != nil {
		return 0, err
	}
	n := c.size
	if n <= 1 {
		return val, nil
	}
	cc := c.collComm()
	me := c.Rank(th)
	acc := val
	for k := 1; k < n; k <<= 1 {
		tag := 2000 + k
		if me&k != 0 {
			if err := th.sendE(cc, me-k, tag, 8, acc); err != nil {
				return 0, err
			}
			break
		}
		if me+k < n {
			v, err := th.recvE(cc, me+k, tag)
			if err != nil {
				return 0, err
			}
			acc = op(acc, v.(int64))
		}
	}
	top := 1
	for top < n {
		top <<= 1
	}
	for k := top >> 1; k >= 1; k >>= 1 {
		tag := 3000 + k
		if me&(k-1) == 0 {
			if me&k != 0 {
				v, err := th.recvE(cc, me-k, tag)
				if err != nil {
					return 0, err
				}
				acc = v.(int64)
			} else if me+k < n {
				if err := th.sendE(cc, me+k, tag, 8, acc); err != nil {
					return 0, err
				}
			}
		}
	}
	return acc, nil
}
