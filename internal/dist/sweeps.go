package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Sweeps runs a service's sweeps one at a time, each through a
// coordinator of its own over the sweep's checkpoint, which is the
// merge ledger. The service is every coordinator's first worker: an
// in-process worker runs the same lease loop as a remote one, calling
// the coordinator directly, so a sweep finishes with no remote worker
// at all. Remote workers join through Handler, which routes them to the
// sweep being coordinated and keeps them waiting between sweeps. One
// roster outlives the sweeps: each sweep's coordinator records into it,
// and between sweeps Sweeps records every request it answers itself, so
// GET /dist/v1/status lists the workers between sweeps too.
type Sweeps struct {
	o       CoordinatorOptions
	workers int
	slot    chan struct{}               // held by the sweep being coordinated
	cur     atomic.Pointer[Coordinator] // the sweep being coordinated, nil between sweeps
	roster  roster
}

// NewSweeps builds a Sweeps. Each sweep's coordinator takes its options
// from o, with Spec and Ledger set per sweep; the in-process worker runs
// workers simulation jobs at a time (0 = every CPU) and records into
// o.Obs and o.Trace.
func NewSweeps(o CoordinatorOptions, workers int) *Sweeps {
	o.fillDefaults()
	return &Sweeps{o: o, workers: workers, slot: make(chan struct{}, 1)}
}

// Run coordinates spec over ledger and returns the rendered report,
// byte-identical to a serial run with NoTimings. It waits while another
// sweep is being coordinated, and gives up with ctx's error when ctx
// ends first. An existing ledger — a restarted service's, or a local
// run's checkpoint of the same sweep — is salvaged and resumed.
// started, when non-nil, sees the coordinator before its first lease.
func (s *Sweeps) Run(ctx context.Context, spec SweepSpec, ledger string, started func(*Coordinator)) (string, error) {
	select {
	case s.slot <- struct{}{}:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	defer func() { <-s.slot }()
	o := s.o
	o.Spec, o.Ledger = spec, ledger
	c, err := NewCoordinator(o)
	if err != nil {
		return "", err
	}
	defer c.Close()
	c.roster = &s.roster
	if started != nil {
		started(c)
	}
	s.cur.Store(c)
	w := newWorker(WorkerOptions{Name: "in-process", Workers: s.workers, Obs: o.Obs, Trace: o.Trace, Logf: o.Logf}, c)
	err = w.run(ctx)
	s.cur.Store(nil)
	if err != nil {
		return "", err
	}
	if err := c.Close(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := c.WriteReport(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Status snapshots the sweep being coordinated; between sweeps it
// holds only the roster.
func (s *Sweeps) Status() Status {
	if c := s.cur.Load(); c != nil {
		return c.StatusSnapshot()
	}
	return Status{Workers: s.roster.list(time.Now(), s.o.LeaseTTL)}
}

// Lease grants from the sweep being coordinated. A service outlives its
// sweeps, so a worker never hears "done": between sweeps, and once the
// live sweep has nothing left to grant, it is told to wait, and the
// roster records the wait.
func (s *Sweeps) Lease(worker string) (LeaseGrant, error) {
	c := s.cur.Load()
	if c == nil {
		s.roster.seen(worker, time.Now(), GrantWait)
		return LeaseGrant{Status: GrantWait}, nil
	}
	g, err := c.Lease(worker)
	if err == nil && g.Status == GrantDone {
		g = LeaseGrant{Status: GrantWait, Epoch: g.Epoch}
		s.roster.seen(worker, c.now(), GrantWait)
	}
	return g, err
}

// Heartbeat renews a lease of the sweep being coordinated; a retired
// sweep's leases are gone.
func (s *Sweeps) Heartbeat(worker, lease string, epoch uint64) error {
	c := s.cur.Load()
	if c == nil {
		s.roster.seen(worker, time.Now(), "")
		return ErrLeaseGone
	}
	return c.Heartbeat(worker, lease, epoch)
}

// Results merges into the sweep being coordinated. Every grant carries
// its sweep's spec, so results for keys outside that sweep were
// computed under a retired sweep's lease: the lease is gone.
func (s *Sweeps) Results(worker, lease string, epoch uint64, entries []Entry) (int, int, error) {
	c := s.cur.Load()
	if c == nil {
		s.roster.seen(worker, time.Now(), "")
		return 0, 0, ErrLeaseGone
	}
	accepted, dups, err := c.Results(worker, lease, epoch, entries)
	if errors.Is(err, ErrForeignKey) {
		err = fmt.Errorf("%w: %v", ErrLeaseGone, err)
	}
	return accepted, dups, err
}

// Handler serves the worker-facing wire surface under /dist/v1/.
// GET /dist/v1/status answers Status.
func (s *Sweeps) Handler() http.Handler {
	mux := http.NewServeMux()
	handleLeaseOps(mux, s)
	mux.HandleFunc("GET /dist/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	return mux
}
