// Package fault is the deterministic fault-injection layer behind the
// experiment pipeline's robustness guarantees: a transient-error
// classifier the distributed worker's network retry keys on, and an
// fs/io wrapper set that injects short writes, torn final lines,
// ENOSPC/EIO errors and crash points at chosen byte offsets.
//
// The package has two audiences. Production code uses the classifiers
// (IsTransient, IsUnavailable) and the FS abstraction (OS) so that every
// byte the checkpoint layer writes can be routed through an injector in
// tests. Tests use WritePlan and InjectFS to build reproducible fault
// scenarios: every injected fault is a pure function of an offset, so a
// failing scenario replays exactly.
//
// Fault model (see DESIGN.md §9): an error is transient when retrying the
// same operation can plausibly succeed — interrupted syscalls, a peer
// that is restarting, explicitly marked transient failures. Resource
// exhaustion (ENOSPC), data corruption (EIO) and deterministic job
// failures are fatal: retrying burns time without changing the outcome.
package fault

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// transientError marks an error as retryable. It is created by Transient
// and detected by IsTransient through the wrap chain.
type transientError struct {
	err error
}

func (e *transientError) Error() string { return "transient: " + e.err.Error() }

func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as transient: IsTransient (and so IsUnavailable)
// accepts the wrapped error as retryable. Marking nil returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is classified as retryable: it was
// marked with Transient anywhere in its wrap chain, or it is one of the
// OS-level errors that signal contention rather than a persistent fault
// (EINTR, EAGAIN, EBUSY, ETIMEDOUT, ECONNRESET). Resource exhaustion
// (ENOSPC), I/O corruption (EIO), context cancellation and per-job
// deadline overruns are NOT transient: a deterministic job that timed out
// once will time out again.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var t *transientError
	if errors.As(err, &t) {
		return true
	}
	for _, e := range []error{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.ETIMEDOUT, syscall.ECONNRESET} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// IsUnavailable reports whether err looks like a peer that is down or
// restarting rather than a request it rejected: anything IsTransient
// accepts, plus the connection-level failures a crashed service
// produces — connection refused/aborted, unreachable host or network,
// a broken pipe, a response torn mid-body (unexpected EOF), or any
// net.Error (dial failures and I/O timeouts). Distributed clients key
// failover retry on this: an unavailable coordinator is worth retrying
// against a (possibly new) endpoint a little later, while a 4xx-style
// protocol rejection is not — the same request can never succeed.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	if IsTransient(err) {
		return true
	}
	for _, e := range []error{
		syscall.ECONNREFUSED, syscall.ECONNABORTED, syscall.EPIPE,
		syscall.EHOSTUNREACH, syscall.ENETUNREACH, syscall.ENETDOWN,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Injected fault sentinels. ErrInjectedENOSPC and ErrInjectedEIO wrap the
// real syscall errors so production code that checks errors.Is(err,
// syscall.ENOSPC) classifies injected faults exactly like real ones.
var (
	// ErrCrash simulates a SIGKILL landing at a chosen byte offset: the
	// write that hits a crash point is torn at the offset and every later
	// operation on the stream fails with this error. Harnesses treat it as
	// process death — stop the run and resume from the on-disk state.
	ErrCrash = errors.New("fault: injected crash point reached")
	// ErrInjectedENOSPC is an injected disk-full failure (fatal).
	ErrInjectedENOSPC = &injectedErr{"fault: injected ENOSPC", syscall.ENOSPC}
	// ErrInjectedEIO is an injected I/O failure (fatal).
	ErrInjectedEIO = &injectedErr{"fault: injected EIO", syscall.EIO}
)

// injectedErr pairs an injection label with the syscall error it
// simulates, so errors.Is matches both the sentinel and the syscall.
type injectedErr struct {
	msg   string
	errno syscall.Errno
}

func (e *injectedErr) Error() string { return e.msg }

func (e *injectedErr) Unwrap() error { return e.errno }

// IsCrash reports whether err carries an injected crash point.
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }
