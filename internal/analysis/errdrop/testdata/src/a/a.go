// Package a is golden-test input for the errdrop analyzer: discarded
// results of Thread.Wait/Waitall/Test/Testall and of the partitioned
// Pready/Parrived/Pwait must be flagged; consumed
// results, other receivers, and annotated sites must not. An allow
// directive that suppresses nothing is reported as stale.
package a

// Thread models the runtime's completion API shape.
type Thread struct{}

// Request models an in-flight operation.
type Request struct{}

// Wait blocks until r completes and returns its error.
func (th *Thread) Wait(r *Request) error { return nil }

// Waitall blocks until every request completes.
func (th *Thread) Waitall(rs []*Request) error { return nil }

// Test polls once and reports completion and the request's error.
func (th *Thread) Test(r *Request) (bool, error) { return false, nil }

// Testall polls once and returns the requests still pending.
func (th *Thread) Testall(rs []*Request) []*Request { return rs }

// Prequest models a persistent partitioned request.
type Prequest struct{}

// Pready marks partition i ready to send.
func (th *Thread) Pready(pr *Prequest, i int) error { return nil }

// Parrived reports whether partition i has landed.
func (th *Thread) Parrived(pr *Prequest, i int) (bool, error) { return false, nil }

// Pwait completes the epoch.
func (th *Thread) Pwait(pr *Prequest) error { return nil }

// Barrier is a non-Thread receiver with a same-named method.
type Barrier struct{}

// Wait joins the barrier; it has no error to drop.
func (b *Barrier) Wait(th *Thread) {}

func drops(th *Thread, r *Request, rs []*Request) {
	th.Wait(r)            // want `result of Thread.Wait discarded`
	th.Waitall(rs)        // want `result of Thread.Waitall discarded`
	th.Test(r)            // want `result of Thread.Test discarded`
	th.Testall(rs)        // want `result of Thread.Testall discarded`
	_ = th.Wait(r)        // want `result of Thread.Wait discarded`
	_ = th.Testall(rs)    // want `result of Thread.Testall discarded`
	done, _ := th.Test(r) // want `error of Thread.Test discarded`
	_, _ = th.Test(r)     // want `error of Thread.Test discarded`
	for !done {
		done, _ = th.Test(r) // want `error of Thread.Test discarded`
	}
}

func dropsPartitioned(th *Thread, pr *Prequest) {
	th.Pready(pr, 0)            // want `result of Thread.Pready discarded`
	th.Parrived(pr, 0)          // want `result of Thread.Parrived discarded`
	ok, _ := th.Parrived(pr, 0) // want `error of Thread.Parrived discarded`
	_ = ok
	th.Pwait(pr) // want `result of Thread.Pwait discarded`
}

func consumes(th *Thread, r *Request, rs []*Request) error {
	if err := th.Wait(r); err != nil {
		return err
	}
	for {
		done, err := th.Test(r)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if _, err := th.Test(r); err != nil {
		return err
	}
	for len(rs) > 0 {
		rs = th.Testall(rs)
	}
	return th.Waitall(rs)
}

func otherReceiver(b *Barrier, th *Thread) {
	b.Wait(th) // not a Thread: fine
}

func annotated(th *Thread, r *Request, pr *Prequest) {
	th.Wait(r)            //simcheck:allow errdrop benchmark loop on a fault-free world
	done, _ := th.Test(r) //simcheck:allow errdrop fatal handler: an error panics inside Test
	_ = done
	//simcheck:allow errdrop fatal handler: an error panics inside Pwait
	th.Pwait(pr)
}

// stale: a directive covering no finding is itself reported, at its own
// line.
func stale(th *Thread, b *Barrier) {
	b.Wait(th) //simcheck:allow errdrop not a Thread, nothing to suppress // want `stale allow directive: it suppresses no errdrop finding`
	//simcheck:allow errdrop the next line drops nothing // want `stale allow directive`
	_ = len(th.Testall(nil)) == 0
}
