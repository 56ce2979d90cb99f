package mpi

import (
	"fmt"

	"mpicontend/internal/fabric"
)

// Win is a one-sided communication window: a float64 buffer exposed on
// every rank (elements model MPI_DOUBLE, 8 bytes each). Access is passive
// target: origins issue Put/Get/Accumulate and complete them with Flush.
type Win struct {
	w        *World
	id       int
	buffers  [][]float64 // per-rank window memory
	pending  int         // live RMA requests issued on this window (all ranks)
	elemSize int64
}

// NewWin creates a window of count float64 elements on every rank.
func (w *World) NewWin(count int64) *Win {
	win := &Win{w: w, id: len(w.wins), elemSize: 8}
	for range w.Procs {
		win.buffers = append(win.buffers, make([]float64, count))
	}
	w.wins = append(w.wins, win)
	return win
}

// Buffer exposes rank's window memory (for tests and result checking).
func (win *Win) Buffer(rank int) []float64 { return win.buffers[rank] }

// rmaOp issues one one-sided operation from th to target and returns its
// tracking request. Internal helper for Put/Get/Accumulate.
func (th *Thread) rmaOp(kind fabric.PacketKind, win *Win, target int,
	offset int64, count int64, payload []float64, buf *interface{}) *Request {
	p := th.P
	tel := th.telStart()
	th.mainBegin(0)
	r := p.allocReq(0)
	*r = Request{p: p, kind: RMAReq, dst: target, src: p.Rank,
		bytes: count * win.elemSize, win: win, buf: buf}
	win.pending++
	if p.issue(r) {
		th.mainEnd(0)
		th.telCall(kind.String(), tel)
		return r
	}
	bytes := int64(0)
	var data interface{}
	if kind == fabric.RMAPut || kind == fabric.RMAAcc {
		bytes = count * win.elemSize
		data = payload
	}
	pkt := p.w.Fab.AllocPacket()
	*pkt = fabric.Packet{
		Kind: kind, Src: p.Rank, Dst: target, Bytes: bytes,
		Handle: r, Hdr: fabric.Header{Win: win.id, Offset: offset, Count: count},
		Payload: data,
	}
	p.send(pkt, false, r)
	th.mainEnd(0)
	th.telCall(kind.String(), tel)
	return r
}

// Put copies vals into the target rank's window at offset. The returned
// request completes when the target acknowledges.
func (th *Thread) Put(win *Win, target int, offset int64, vals []float64) *Request {
	return th.rmaOp(fabric.RMAPut, win, target, offset, int64(len(vals)), vals, nil)
}

// Get fetches count elements from the target's window at offset into the
// caller's slot: a successful completion writes the []float64 to *buf
// (nil means the data is not wanted); a failed get leaves it untouched.
// Like a receive, the request is dead once a wait consumed it.
func (th *Thread) Get(win *Win, target int, offset, count int64, buf *interface{}) *Request {
	return th.rmaOp(fabric.RMAGet, win, target, offset, count, nil, buf)
}

// Accumulate adds vals element-wise into the target's window at offset
// (MPI_SUM semantics).
func (th *Thread) Accumulate(win *Win, target int, offset int64, vals []float64) *Request {
	return th.rmaOp(fabric.RMAAcc, win, target, offset, int64(len(vals)), vals, nil)
}

// Flush blocks until every outstanding RMA operation issued by this
// process on the window has completed, freeing their requests. Like Wait,
// it iterates the progress loop at low priority. It returns the first
// request error, if any (after the error handler runs).
func (th *Thread) Flush(win *Win, rs []*Request) error {
	return th.Waitall(rs)
}

// handleRMA processes one-sided protocol packets inside the CS.
func (p *Proc) handleRMA(th *Thread, pkt *fabric.Packet) {
	cost := th.cost()
	now := th.S.Now()
	switch pkt.Kind {
	case fabric.RMAPut:
		m := &pkt.Hdr
		win := p.w.wins[m.Win]
		vals := pkt.Payload.([]float64)
		th.S.Sleep(cost.CopyTime(pkt.Bytes))
		copy(win.buffers[p.Rank][m.Offset:], vals)
		ack := p.w.Fab.AllocPacket()
		*ack = fabric.Packet{Kind: fabric.RMAAck, Src: p.Rank,
			Dst: pkt.Src, Handle: pkt.Handle}
		p.send(ack, false, nil)

	case fabric.RMAAcc:
		m := &pkt.Hdr
		win := p.w.wins[m.Win]
		vals := pkt.Payload.([]float64)
		th.S.Sleep(cost.AccumulateTime(pkt.Bytes))
		dst := win.buffers[p.Rank][m.Offset:]
		for i, v := range vals {
			dst[i] += v
		}
		ack := p.w.Fab.AllocPacket()
		*ack = fabric.Packet{Kind: fabric.RMAAck, Src: p.Rank,
			Dst: pkt.Src, Handle: pkt.Handle}
		p.send(ack, false, nil)

	case fabric.RMAGet:
		m := &pkt.Hdr
		win := p.w.wins[m.Win]
		th.S.Sleep(cost.CopyTime(m.Count * win.elemSize))
		//simcheck:allow hotalloc payload buffer handed to the user; its copy cost is modeled above
		vals := make([]float64, m.Count)
		copy(vals, win.buffers[p.Rank][m.Offset:])
		reply := p.w.Fab.AllocPacket()
		*reply = fabric.Packet{Kind: fabric.RMAGetReply, Src: p.Rank,
			Dst: pkt.Src, Bytes: m.Count * win.elemSize,
			Handle: pkt.Handle, Payload: vals}
		p.send(reply, false, nil)

	case fabric.RMAGetReply:
		// A get already failed by its deadline drops the late reply.
		r := pkt.Handle.(*Request)
		if !r.complete {
			r.deliver(pkt.Payload, now)
		}

	case fabric.RMAAck:
		// An op already failed by its deadline drops the late ack.
		if r := pkt.Handle.(*Request); !r.complete {
			r.markComplete(now)
		}

	default:
		panic(fmt.Sprintf("mpi: unhandled RMA packet %v", pkt.Kind))
	}
}
