package mpi

import "fmt"

// Errcode is an MPI-style error class attached to a failed request and
// returned by Wait/Waitall (after the configured error handler runs).
type Errcode int

const (
	// ErrSuccess is MPI_SUCCESS.
	ErrSuccess Errcode = iota
	// ErrTimeout reports a per-request deadline expiring before the
	// request completed (rendezvous CTS never arrived, receive never
	// matched, ack never returned).
	ErrTimeout
	// ErrRetryExhausted reports the reliable transport giving up on a
	// packet after MaxRetries retransmissions.
	ErrRetryExhausted
	// ErrTruncate reports a message larger than the receive's buffer
	// bound (MPI_ERR_TRUNCATE).
	ErrTruncate
	// ErrRequest reports an operation on an invalid (already freed)
	// request (MPI_ERR_REQUEST).
	ErrRequest
	// ErrProcFailed reports a peer process declared dead by the failure
	// detector (ULFM MPI_ERR_PROC_FAILED): the operation can never
	// complete because its partner fail-stopped.
	ErrProcFailed
	// ErrRevoked reports an operation on (or interrupted by) a revoked
	// communicator (ULFM MPI_ERR_REVOKED).
	ErrRevoked
	// ErrPartInactive reports Pready/PreadyRange/Parrived on a
	// partitioned request with no active epoch: before the first Start,
	// or after Wait consumed the epoch (MPI-4.0 semantics; documented
	// error of partitioned.go).
	ErrPartInactive
	// ErrPartDoubleReady reports Pready on a partition already marked
	// ready in the current epoch. MPI-4.0 declares this erroneous; the
	// simulated runtime detects it exactly, because the readiness bitmap
	// observes every transition.
	ErrPartDoubleReady

	// errcodeEnd marks the end of the error-class enumeration; the
	// Errcode.String exhaustiveness test walks [0, errcodeEnd) so a new
	// class cannot silently stringify through the default case. Keep it
	// last.
	errcodeEnd
)

// String names the code like the MPI constants.
func (e Errcode) String() string {
	switch e {
	case ErrSuccess:
		return "MPI_SUCCESS"
	case ErrTimeout:
		return "MPI_ERR_TIMEOUT"
	case ErrRetryExhausted:
		return "MPI_ERR_RETRY_EXHAUSTED"
	case ErrTruncate:
		return "MPI_ERR_TRUNCATE"
	case ErrRequest:
		return "MPI_ERR_REQUEST"
	case ErrProcFailed:
		return "MPI_ERR_PROC_FAILED"
	case ErrRevoked:
		return "MPI_ERR_REVOKED"
	case ErrPartInactive:
		return "MPI_ERR_PART_INACTIVE"
	case ErrPartDoubleReady:
		return "MPI_ERR_PART_DOUBLE_READY"
	default:
		return fmt.Sprintf("Errcode(%d)", int(e))
	}
}

// Error is the error type the completion calls surface: a code plus the
// failed request's description.
type Error struct {
	Code Errcode
	// Detail describes the failed operation (kind, peer, tag, bytes).
	Detail string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%v: %s", e.Code, e.Detail) }

// Errhandler selects how request errors are surfaced, after
// MPI_Comm_set_errhandler.
type Errhandler int

const (
	// ErrhandlerInherit (the zero value, on a Comm) defers to the
	// world's handler; on the world it means the MPI default,
	// ErrorsAreFatal.
	ErrhandlerInherit Errhandler = iota
	// ErrorsAreFatal panics on the first request error (the MPI default).
	ErrorsAreFatal
	// ErrorsReturn surfaces errors as return values of Wait/Waitall and
	// via Request.Err after Waitany, Waitsome, Test and Testall.
	ErrorsReturn
)

// String names the handler like the MPI constants.
func (h Errhandler) String() string {
	switch h {
	case ErrorsAreFatal:
		return "MPI_ERRORS_ARE_FATAL"
	case ErrorsReturn:
		return "MPI_ERRORS_RETURN"
	case ErrhandlerInherit:
		return "(inherit)"
	default:
		return fmt.Sprintf("Errhandler(%d)", int(h))
	}
}

// SetErrhandler sets the world-wide error handler (the default for every
// communicator that has not set its own).
func (w *World) SetErrhandler(h Errhandler) { w.errhandler = h }

// SetErrhandler sets this communicator's error handler, overriding the
// world's for requests issued on it.
func (c *Comm) SetErrhandler(h Errhandler) { c.errhandler = h }

// raise is the one error-handler site: it surfaces err through the
// handler of communicator c (nil for none), falling back to the world's,
// falling back to the MPI default. A fatal handler panics; ErrorsReturn
// hands err back to the caller.
func (w *World) raise(c *Comm, err *Error) error {
	h := ErrhandlerInherit
	if c != nil {
		h = c.errhandler
	}
	if h == ErrhandlerInherit {
		h = w.errhandler
	}
	if h == ErrhandlerInherit || h == ErrorsAreFatal {
		panic(fmt.Sprintf("mpi: %v (set MPI_ERRORS_RETURN to handle)", err))
	}
	return err
}

// raise surfaces a failed request through its communicator's error
// handler. It is a no-op (returning nil) for successful requests.
func (r *Request) raise() error {
	if r.err == nil {
		return nil
	}
	return r.p.w.raise(r.comm, r.err)
}

// raiseAs surfaces an error that is not recorded on the request itself —
// e.g. operating on an already-freed request — as raise does.
func (r *Request) raiseAs(code Errcode) error {
	//simcheck:allow hotalloc error construction on an erroneous call (a freed request), not per message
	return r.p.w.raise(r.comm, &Error{Code: code, Detail: r.describe()})
}

// describe renders the request for error messages.
func (r *Request) describe() string {
	switch r.kind {
	case SendReq:
		proto := "eager"
		if r.rndv {
			proto = "rendezvous"
		}
		return fmt.Sprintf("%s send rank %d -> %d tag %d (%d bytes)",
			proto, r.p.Rank, r.dst, r.tag, r.bytes)
	case RecvReq:
		return fmt.Sprintf("recv on rank %d from %d tag %d", r.p.Rank, r.src, r.tag)
	default:
		return fmt.Sprintf("rma op rank %d -> %d (%d bytes)", r.p.Rank, r.dst, r.bytes)
	}
}
