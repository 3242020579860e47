package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/runner"
)

// Sentinel errors of the lease protocol.
var (
	// ErrLeaseGone reports an operation on a lease that expired, ended
	// with its part's last key, or never existed. Workers treat it as
	// "stop this shard and ask for a new lease"; over HTTP it maps to 410
	// Gone.
	ErrLeaseGone = errors.New("dist: lease expired or superseded")
	// ErrDivergent reports a result whose payload differs byte-for-byte
	// from the already-recorded result for the same job key. Jobs are
	// deterministic, so this can only mean two different job universes
	// were merged; the batch is rejected before any ledger write.
	ErrDivergent = errors.New("dist: divergent result payload")
	// ErrForeignKey reports a result for a job key outside the sweep's
	// enumerated universe.
	ErrForeignKey = errors.New("dist: job key outside the sweep universe")
)

// CoordinatorOptions configures NewCoordinator.
type CoordinatorOptions struct {
	// Spec is the sweep to distribute. It is normalized and then shipped
	// verbatim inside every lease grant, so workers derive the exact same
	// eval options — and therefore the exact same job keys — as the
	// coordinator.
	Spec SweepSpec
	// Parts is the number of partitions of the job space; <= 0 defaults
	// to 8, and it is capped at the job count. More parts than workers
	// gives the lease loop natural rebalancing granularity.
	Parts int
	// LeaseTTL is how long a lease survives without a heartbeat; <= 0
	// defaults to 30s.
	LeaseTTL time.Duration
	// Ledger is the merged checkpoint JSONL path (required): every
	// accepted result becomes one flushed checkpoint line, and the final
	// report is produced by replaying this file through the ordinary
	// resume path. An existing ledger is salvaged strictly on startup —
	// that is the coordinator-restart story.
	Ledger string
	// Fsync syncs the ledger after every append, hardening merged results
	// against machine crashes rather than just process kills.
	Fsync bool
	// FS routes ledger I/O; nil selects the real filesystem. Chaos tests
	// substitute a fault.InjectFS to tear writes.
	FS fault.FS
	// Obs, when non-nil, mirrors lease/merge counters ("dist.*").
	Obs *obs.Registry
	// Trace, when non-nil, records the sweep span and one child span per
	// lease. A worker's own lease span carries the same lease id, which
	// is what joins the two in a merged export (internal/obs/fleet).
	Trace *obstrace.Tracer
	// Logf, when non-nil, receives one line per lease-state transition.
	Logf func(format string, args ...interface{})
}

func (o *CoordinatorOptions) fillDefaults() {
	if o.Parts <= 0 {
		o.Parts = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
}

// partState is one partition of the job space.
type partState struct {
	id        int
	keys      []string // every key of the part, sorted
	remaining map[string]bool
	leaseID   string // live lease holding the part, "" if none
}

// lease is one live grant. Revoked leases, and leases whose part's last
// key was recorded, are simply forgotten: any later operation on their
// id answers ErrLeaseGone, which is exactly what a worker holding a
// stale grant must hear.
type lease struct {
	id      string
	worker  string
	part    int
	granted time.Time
	renewed time.Time
	span    *obstrace.Span // child of the sweep span; nil when not tracing
}

// workerStat tracks one worker's liveness across its leases.
type workerStat struct {
	granted  uint64
	lastSeen time.Time
	toldDone bool // answered "done" (Drain waits for it)
}

// LeaseGrant is the coordinator's answer to a lease request.
type LeaseGrant struct {
	// Status is "lease" (Keys/Spec are populated), "wait" (all parts are
	// leased; ask again later) or "done" (the sweep is complete).
	Status string `json:"status"`
	// Lease is the grant's id, quoted back on heartbeat and results.
	Lease string `json:"lease,omitempty"`
	// Epoch is the granting coordinator's incarnation. Every operation on
	// the lease must quote it back; after a restart the new coordinator
	// fences traffic carrying an older epoch (ErrStaleEpoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Part and Parts locate the granted partition.
	Part  int `json:"part,omitempty"`
	Parts int `json:"parts,omitempty"`
	// Keys are the part's still-unrecorded job keys, sorted. The worker
	// runs exactly these — after an expiry, the new holder skips what the
	// old one already delivered.
	Keys []string `json:"keys,omitempty"`
	// Spec is the sweep to run; identical for every grant.
	Spec SweepSpec `json:"spec,omitempty"`
	// TTLNS is the heartbeat deadline, on wait grants too, where it
	// paces the waiting worker's fleet pushes.
	TTLNS int64 `json:"ttl_ns,omitempty"`
}

// Grant statuses.
const (
	GrantLease = "lease"
	GrantWait  = "wait"
	GrantDone  = "done"
)

// Status is a point-in-time snapshot of coordinator state, served on
// GET /dist/v1/status and asserted on by the chaos suites. Partitions
// and Workers are the auto-scaling hook surface: lease ages expose
// stragglers, worker last-seen timestamps expose dead workers.
type Status struct {
	Experiment string         `json:"experiment"`
	Epoch      uint64         `json:"epoch"`
	Deposed    bool           `json:"deposed,omitempty"`
	TotalJobs  int            `json:"total_jobs"`
	DoneJobs   int            `json:"done_jobs"`
	Parts      int            `json:"parts"`
	DoneParts  int            `json:"done_parts"`
	LiveLeases int            `json:"live_leases"`
	Granted    uint64         `json:"granted"`
	Expired    uint64         `json:"expired"`
	Duplicates uint64         `json:"duplicates"`
	Late       uint64         `json:"late_results"`
	Restored   int            `json:"restored"`
	Done       bool           `json:"done"`
	Partitions []PartStatus   `json:"partitions,omitempty"`
	Workers    []WorkerStatus `json:"workers,omitempty"`
}

// PartStatus is one partition's progress in a Status snapshot.
type PartStatus struct {
	Part      int `json:"part"`
	Keys      int `json:"keys"`
	Remaining int `json:"remaining"`
	// Lease/Worker/LeaseAgeNS describe the live lease, if any. LeaseAgeNS
	// is time since the grant — a straggler detector for auto-scalers.
	Lease      string `json:"lease,omitempty"`
	Worker     string `json:"worker,omitempty"`
	LeaseAgeNS int64  `json:"lease_age_ns,omitempty"`
}

// WorkerStatus is one worker's liveness in a Status snapshot: every
// worker that ever held a lease this incarnation, with the wall-clock
// instant of its last lease/heartbeat/result.
type WorkerStatus struct {
	Name           string `json:"name"`
	Granted        uint64 `json:"granted"`
	LastSeenUnixNS int64  `json:"last_seen_unix_ns"`
}

// Coordinator owns the sweep's job universe: it enumerates the keys,
// partitions them, leases partitions to workers, merges streamed
// results into the ledger, and replays the ledger into the final
// report. All methods are safe for concurrent use, except SetFleet,
// which must precede Handler.
type Coordinator struct {
	o     CoordinatorOptions
	spec  SweepSpec
	fleet http.Handler // mounted under /fleet/ when set (SetFleet)

	mu       sync.Mutex
	universe map[string]int // job key → part
	parts    []*partState
	leases   map[string]*lease // live only
	done     map[string]json.RawMessage
	appender *runner.CheckpointAppender
	epoch    uint64
	deposed  bool // a higher epoch is persisted: permanently fenced
	workers  map[string]*workerStat
	seq      int
	granted  uint64
	expired  uint64
	dups     uint64
	late     uint64
	restored int

	sweepSpan *obstrace.Span // ended exactly once, when the last job lands

	finished  chan struct{}
	finishGen sync.Once

	// now is the clock; tests substitute a fake for deterministic
	// expiry schedules.
	now func() time.Time
}

// NewCoordinator enumerates and partitions the sweep's job space,
// strictly salvages any pre-existing ledger (the restart path: already
// merged results are honored, a torn tail is truncated, a divergent or
// foreign ledger is refused), and opens the ledger for appending.
func NewCoordinator(o CoordinatorOptions) (*Coordinator, error) {
	o.fillDefaults()
	if o.Ledger == "" {
		return nil, errors.New("dist: coordinator requires a ledger path")
	}
	spec := o.Spec
	if err := spec.Normalize(); err != nil {
		return nil, fmt.Errorf("dist: bad sweep spec: %w", err)
	}
	keys, err := spec.EvalOptions().SweepKeys(spec.Experiment)
	if err != nil {
		return nil, fmt.Errorf("dist: enumerating %s: %w", spec.Experiment, err)
	}
	return newCoordinator(spec, keys, o)
}

// newCoordinator wires a coordinator over an explicit key universe; the
// property tests drive it with synthetic keys and a fake clock.
func newCoordinator(spec SweepSpec, keys []string, o CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		o:        o,
		spec:     spec,
		universe: make(map[string]int, len(keys)),
		leases:   make(map[string]*lease),
		done:     make(map[string]json.RawMessage),
		workers:  make(map[string]*workerStat),
		finished: make(chan struct{}),
		now:      time.Now,
	}

	// Claim the next epoch before reading anything else: persisting
	// epoch+1 is what fences a predecessor that is still running — its
	// next fence check sees the bump and refuses to touch the ledger, so
	// everything this incarnation salvages below stays consistent.
	prev, err := ReadEpoch(c.fs(), o.Ledger)
	if err != nil {
		return nil, err
	}
	c.epoch = prev + 1
	if err := writeEpoch(c.fs(), o.Ledger, c.epoch); err != nil {
		return nil, err
	}
	nparts := o.Parts
	if nparts > len(keys) {
		nparts = len(keys)
	}
	for i := 0; i < nparts; i++ {
		c.parts = append(c.parts, &partState{id: i, remaining: make(map[string]bool)})
	}
	for _, k := range keys {
		p := PartOf(k, nparts)
		c.universe[k] = p
		c.parts[p].keys = append(c.parts[p].keys, k)
		c.parts[p].remaining[k] = true
	}
	for _, p := range c.parts {
		sort.Strings(p.keys)
	}

	// The sweep span is the root every lease span (and transitively every
	// worker-side span) hangs off; it ends when the last job lands.
	c.sweepSpan = o.Trace.Root("dist.sweep",
		obstrace.String("experiment", spec.Experiment),
		obstrace.Int("epoch", int64(c.epoch)),
		obstrace.Int("jobs", int64(len(keys))),
		obstrace.Int("parts", int64(nparts)))

	// Restart path: fold the surviving ledger back in before accepting
	// anything new. Strict salvage refuses divergent payloads and
	// truncates a torn tail so the appender cannot glue onto garbage.
	vals, salvage, err := runner.SalvageStrict(c.fs(), o.Ledger)
	if err != nil {
		return nil, err
	}
	for k, v := range vals {
		if _, ok := c.universe[k]; !ok {
			return nil, fmt.Errorf("%w: ledger %s holds job %q not in sweep %s — it belongs to a different sweep",
				ErrForeignKey, o.Ledger, k, spec.Experiment)
		}
		cv, cerr := compactValue(v)
		if cerr != nil {
			return nil, fmt.Errorf("dist: ledger %s entry %q: %w", o.Ledger, k, cerr)
		}
		c.markDoneLocked(k, cv)
		c.restored++
	}
	if salvage.TornBytes > 0 {
		o.Obs.Counter("dist.ledger_torn_bytes").Add(uint64(salvage.TornBytes))
	}
	o.Obs.Counter("dist.ledger_restored").Add(uint64(c.restored))
	c.logf("dist: sweep %s: epoch %d, %d jobs in %d parts (%d restored from %s)",
		spec.Experiment, c.epoch, len(keys), nparts, c.restored, o.Ledger)

	app, err := runner.OpenCheckpointAppender(c.fs(), o.Ledger, o.Fsync)
	if err != nil {
		return nil, err
	}
	c.appender = app
	c.checkFinishedLocked()
	return c, nil
}

// SetFleet mounts h (the fleet federation surface, internal/obs/fleet)
// under /fleet/ on the coordinator's HTTP handler. Call before Handler
// or Serve: the mount is fixed when the handler is built.
func (c *Coordinator) SetFleet(h http.Handler) { c.fleet = h }

// Ready backs /readyz: a coordinator is ready while it can still merge
// results — not deposed, ledger appender open, persisted epoch
// readable and current.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		return fmt.Errorf("deposed at epoch %d", c.epoch)
	}
	if c.appender == nil {
		return errors.New("ledger closed")
	}
	cur, err := ReadEpoch(c.fs(), c.o.Ledger)
	if err != nil {
		return fmt.Errorf("epoch unreadable: %v", err)
	}
	if cur != c.epoch {
		return fmt.Errorf("epoch %d superseded by %d", c.epoch, cur)
	}
	return nil
}

// Epoch is this incarnation's fencing epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// fenceLocked is the split-brain guard, called before every mutating
// operation: it re-reads the persisted epoch and, if a later
// incarnation has claimed the ledger, permanently fences this one —
// the ledger appender is closed so not even a bug can write through
// it. Lease requests, which carry no epoch yet, pass this check alone.
func (c *Coordinator) fenceLocked() error {
	if c.deposed {
		return fmt.Errorf("%w: coordinator epoch %d was deposed", ErrStaleEpoch, c.epoch)
	}
	cur, err := ReadEpoch(c.fs(), c.o.Ledger)
	if err != nil {
		return err
	}
	if cur != c.epoch {
		c.deposed = true
		if c.appender != nil {
			_ = c.appender.Close()
			c.appender = nil
		}
		c.o.Obs.Counter("dist.deposed").Inc()
		c.logf("dist: epoch %d deposed by persisted epoch %d; fencing", c.epoch, cur)
		return fmt.Errorf("%w: coordinator epoch %d deposed by epoch %d", ErrStaleEpoch, c.epoch, cur)
	}
	return nil
}

// fenceEpochLocked is fenceLocked for a request fenced to epoch, as
// heartbeats and result deliveries are: any epoch but this
// incarnation's is stale.
func (c *Coordinator) fenceEpochLocked(epoch uint64) error {
	if err := c.fenceLocked(); err != nil {
		return err
	}
	if epoch != c.epoch {
		c.o.Obs.Counter("dist.stale_epoch_rejections").Inc()
		return fmt.Errorf("%w: request epoch %d, coordinator epoch %d", ErrStaleEpoch, epoch, c.epoch)
	}
	return nil
}

func (c *Coordinator) fs() fault.FS {
	if c.o.FS == nil {
		return fault.OS
	}
	return c.o.FS
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.o.Logf != nil {
		c.o.Logf(format, args...)
	}
}

// compactValue canonicalizes a payload so byte-level comparison is
// insensitive to wire formatting.
func compactValue(v json.RawMessage) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, v); err != nil {
		return nil, fmt.Errorf("invalid JSON payload: %w", err)
	}
	return json.RawMessage(buf.Bytes()), nil
}

// Close flushes and closes the ledger. The coordinator stays queryable
// but refuses further results.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.appender == nil {
		return nil
	}
	err := c.appender.Close()
	c.appender = nil
	return err
}

// Done is closed once every job key has a recorded result.
func (c *Coordinator) Done() <-chan struct{} { return c.finished }

// WaitDone blocks until the sweep completes or ctx is cancelled.
func (c *Coordinator) WaitDone(ctx context.Context) error {
	select {
	case <-c.finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain keeps a finished coordinator answering until every worker seen
// within the last lease TTL has been told the sweep is done, for half a
// lease TTL at most: long enough for a worker waiting at its poll
// interval (500ms by default) to ask again. Every request a worker
// makes counts as seen, one fenced to a previous epoch too, so a
// restarted coordinator also waits for the workers of its predecessor.
// A coordinator that exits the moment its report renders leaves a
// worker asking for its next lease to spend its whole retry budget on a
// closed port, and fail.
func (c *Coordinator) Drain(ctx context.Context) {
	deadline := time.Now().Add(c.o.LeaseTTL / 2)
	for !c.drained() && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
}

// drained reports whether every worker live within the last lease TTL
// has been told the sweep is done.
func (c *Coordinator) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workers {
		if !ws.toldDone && c.now().Sub(ws.lastSeen) < c.o.LeaseTTL {
			return false
		}
	}
	return true
}

// Lease grants the requesting worker the first unleased part with
// unrecorded keys. With nothing grantable it answers "wait", and once
// every key is recorded, "done". A deposed coordinator refuses to
// grant (ErrStaleEpoch): the worker's retry loop finds the successor.
func (c *Coordinator) Lease(worker string) (LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.seenLocked(worker)
	if err := c.fenceLocked(); err != nil {
		return LeaseGrant{}, err
	}
	c.expireLocked()
	if c.doneLocked() {
		ws.toldDone = true
		return LeaseGrant{Status: GrantDone, Epoch: c.epoch}, nil
	}
	for _, p := range c.parts {
		if len(p.remaining) > 0 && p.leaseID == "" {
			return c.grantLocked(worker, p), nil
		}
	}
	return waitGrant(c.epoch, c.o.LeaseTTL), nil
}

// waitGrant tells a worker that nothing is leasable yet. It carries the
// lease TTL too, which paces the waiting worker's fleet pushes.
func waitGrant(epoch uint64, ttl time.Duration) LeaseGrant {
	return LeaseGrant{Status: GrantWait, Epoch: epoch, TTLNS: int64(ttl)}
}

// seenLocked refreshes a worker's last-seen instant. Every lease
// operation names its worker and calls it first, fenced or not.
func (c *Coordinator) seenLocked(worker string) *workerStat {
	ws := c.workers[worker]
	if ws == nil {
		ws = &workerStat{}
		c.workers[worker] = ws
	}
	ws.lastSeen = c.now()
	return ws
}

// grantLocked issues a lease on part p to worker.
func (c *Coordinator) grantLocked(worker string, p *partState) LeaseGrant {
	c.seq++
	c.granted++
	c.seenLocked(worker).granted++
	c.o.Obs.Counter("dist.leases_granted").Inc()
	// Ids are epoch-qualified so a lease can never collide with one a
	// predecessor granted (each incarnation restarts seq at 0).
	id := fmt.Sprintf("lease-%d-%04d", c.epoch, c.seq)
	now := c.now()
	l := &lease{id: id, worker: worker, part: p.id, granted: now, renewed: now}
	l.span = c.sweepSpan.ChildTrack("dist.lease",
		obstrace.String("lease", id),
		obstrace.Int("part", int64(p.id)),
		obstrace.String("worker", worker),
		obstrace.Int("epoch", int64(c.epoch)))
	c.leases[id] = l
	p.leaseID = id
	keys := make([]string, 0, len(p.remaining))
	for k := range p.remaining {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.logf("dist: lease %s: part %d/%d (%d keys) -> worker %s", id, p.id, len(c.parts), len(keys), worker)
	return LeaseGrant{
		Status: GrantLease,
		Lease:  id,
		Epoch:  c.epoch,
		Part:   p.id,
		Parts:  len(c.parts),
		Keys:   keys,
		Spec:   c.spec,
		TTLNS:  int64(c.o.LeaseTTL),
	}
}

// expireLocked lazily revokes leases whose heartbeat deadline passed.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for id, l := range c.leases {
		if now.Sub(l.renewed) > c.o.LeaseTTL {
			c.expired++
			c.o.Obs.Counter("dist.leases_expired").Inc()
			c.logf("dist: lease %s (part %d, worker %s) expired after %v without heartbeat",
				id, l.part, l.worker, now.Sub(l.renewed))
			c.revokeLocked(l)
		}
	}
}

// revokeLocked forgets a live lease and returns its part to the pool.
// The lease span ends here — whatever the cause (expiry or the part's
// last key recorded), the span just bounds the lease's lifetime.
func (c *Coordinator) revokeLocked(l *lease) {
	l.span.End()
	delete(c.leases, l.id)
	if p := c.parts[l.part]; p.leaseID == l.id {
		p.leaseID = ""
	}
}

// Heartbeat renews a lease's TTL for worker. ErrLeaseGone tells the
// worker its grant was revoked and the shard should be abandoned;
// ErrStaleEpoch tells it the coordinator changed and it must re-lease.
func (c *Coordinator) Heartbeat(worker, leaseID string, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seenLocked(worker)
	if err := c.fenceEpochLocked(epoch); err != nil {
		return err
	}
	c.expireLocked()
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.renewed = c.now()
	return nil
}

// Results merges a batch of completed jobs, delivered by worker, into
// the ledger. Acceptance is idempotent and lease-independent: results
// are keyed by job hash, so duplicates with identical payloads are
// counted and dropped, late results from revoked leases are folded in
// (the work is done — the determinism contract makes it
// indistinguishable from the live holder's), and a payload that
// diverges from the recorded one rejects the whole batch before any
// ledger write. The fence check runs before anything else: a batch
// fenced to a stale epoch is rejected whole, pre-validation and
// pre-write, no matter what it contains. The error
// return is a fencing rejection (ErrStaleEpoch), a validation
// rejection (ErrDivergent/ErrForeignKey) or a ledger append failure.
func (c *Coordinator) Results(worker, leaseID string, epoch uint64, entries []Entry) (accepted, duplicates int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seenLocked(worker)
	if err := c.fenceEpochLocked(epoch); err != nil {
		return 0, 0, err
	}
	c.expireLocked()
	if c.appender == nil {
		return 0, 0, errors.New("dist: coordinator is closed")
	}

	// Validate the whole batch against the universe, the merged state,
	// and itself before writing anything: a rejected batch must leave no
	// partial trace in the ledger.
	type add struct {
		key string
		val json.RawMessage
		ns  int64
	}
	var adds []add
	inBatch := make(map[string]json.RawMessage)
	for _, e := range entries {
		if _, known := c.universe[e.Key]; !known {
			return 0, 0, fmt.Errorf("%w: job %q is not part of sweep %s", ErrForeignKey, e.Key, c.spec.Experiment)
		}
		cv, cerr := compactValue(e.Value)
		if cerr != nil {
			return 0, 0, fmt.Errorf("dist: result for job %q: %w", e.Key, cerr)
		}
		prev, dup := c.done[e.Key]
		if !dup {
			prev, dup = inBatch[e.Key]
		}
		if dup {
			if !bytes.Equal(prev, cv) {
				return 0, 0, fmt.Errorf("%w for job %q: recorded %d bytes, resubmitted %d bytes differ",
					ErrDivergent, e.Key, len(prev), len(cv))
			}
			duplicates++
			continue
		}
		inBatch[e.Key] = cv
		adds = append(adds, add{key: e.Key, val: cv, ns: e.ElapsedNS})
	}

	l, live := c.leases[leaseID]
	if !live && len(adds) > 0 {
		c.late += uint64(len(adds))
		c.o.Obs.Counter("dist.late_results").Add(uint64(len(adds)))
	}
	c.dups += uint64(duplicates)
	if duplicates > 0 {
		c.o.Obs.Counter("dist.duplicate_results").Add(uint64(duplicates))
	}

	for _, a := range adds {
		if err := c.appender.Append(a.key, a.val, time.Duration(a.ns)); err != nil {
			// The ledger could not record progress; nothing past this
			// point was merged, and the in-memory state matches the file.
			return accepted, duplicates, fmt.Errorf("dist: ledger append: %w", err)
		}
		c.markDoneLocked(a.key, a.val)
		accepted++
	}
	if live {
		l.renewed = c.now()
	}
	c.o.Obs.Counter("dist.results_merged").Add(uint64(accepted))
	return accepted, duplicates, nil
}

// markDoneLocked records one merged result and advances part/sweep
// completion. A part whose last key arrives is done no matter which
// lease delivered it; its live lease, if any, is released on the spot.
func (c *Coordinator) markDoneLocked(key string, val json.RawMessage) {
	c.done[key] = val
	p := c.parts[c.universe[key]]
	delete(p.remaining, key)
	if len(p.remaining) == 0 {
		if l := c.leases[p.leaseID]; p.leaseID != "" && l != nil {
			c.revokeLocked(l)
		}
		p.leaseID = ""
		c.checkFinishedLocked()
	}
}

func (c *Coordinator) doneLocked() bool { return len(c.done) == len(c.universe) }

func (c *Coordinator) checkFinishedLocked() {
	if c.doneLocked() {
		c.finishGen.Do(func() {
			c.sweepSpan.End()
			close(c.finished)
		})
	}
}

// StatusSnapshot reports progress for /dist/v1/status and the tests:
// aggregate counters plus the per-partition lease ages and per-worker
// last-seen timestamps an auto-scaler (or an operator deciding whether
// the sweep is actually stuck) keys on.
func (c *Coordinator) StatusSnapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	now := c.now()
	doneParts := 0
	st := Status{
		Experiment: c.spec.Experiment,
		Epoch:      c.epoch,
		Deposed:    c.deposed,
		TotalJobs:  len(c.universe),
		DoneJobs:   len(c.done),
		Parts:      len(c.parts),
		LiveLeases: len(c.leases),
		Granted:    c.granted,
		Expired:    c.expired,
		Duplicates: c.dups,
		Late:       c.late,
		Restored:   c.restored,
		Done:       c.doneLocked(),
	}
	for _, p := range c.parts {
		if len(p.remaining) == 0 {
			doneParts++
		}
		ps := PartStatus{Part: p.id, Keys: len(p.keys), Remaining: len(p.remaining)}
		if l := c.leases[p.leaseID]; p.leaseID != "" && l != nil {
			ps.Lease = l.id
			ps.Worker = l.worker
			ps.LeaseAgeNS = now.Sub(l.granted).Nanoseconds()
		}
		st.Partitions = append(st.Partitions, ps)
	}
	st.DoneParts = doneParts
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		st.Workers = append(st.Workers, WorkerStatus{
			Name:           name,
			Granted:        ws.granted,
			LastSeenUnixNS: ws.lastSeen.UnixNano(),
		})
	}
	return st
}

// Replay returns the evaluation options that regenerate the merged
// report: the sweep's own options (NoTimings forced) resuming from the
// ledger with a single worker, after verifying the ledger covers the
// whole universe under strict salvage. Replays are deterministic, so
// the report — and an obs snapshot of the replay — is byte-identical no
// matter how many workers contributed.
func (c *Coordinator) Replay() (eval.Options, error) {
	select {
	case <-c.finished:
	default:
		c.mu.Lock()
		n, total := len(c.done), len(c.universe)
		c.mu.Unlock()
		return eval.Options{}, fmt.Errorf("dist: sweep incomplete: %d/%d jobs merged", n, total)
	}
	vals, _, err := runner.SalvageStrict(c.fs(), c.o.Ledger)
	if err != nil {
		return eval.Options{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		// Ownership of the ledger moved to a later incarnation; rendering
		// here would race its appends.
		return eval.Options{}, fmt.Errorf("%w: deposed coordinator cannot replay", ErrStaleEpoch)
	}
	for k := range c.universe {
		if _, ok := vals[k]; !ok {
			return eval.Options{}, fmt.Errorf("dist: ledger %s lost job %q between merge and replay", c.o.Ledger, k)
		}
	}
	eo := c.spec.EvalOptions()
	eo.Workers = 1
	eo.Checkpoint = c.o.Ledger
	eo.Resume = true
	eo.FS = c.o.FS
	return eo, nil
}

// WriteReport replays the merged ledger into the final report. Valid
// only once Done() is closed.
func (c *Coordinator) WriteReport(w io.Writer) error {
	eo, err := c.Replay()
	if err != nil {
		return err
	}
	return eo.Run(w, c.spec.Experiment)
}
