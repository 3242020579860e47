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
	// ErrLeaseGone reports an operation on a lease that expired, was
	// stolen, or never existed. Workers treat it as "stop this shard and
	// ask for a new lease"; over HTTP it maps to 410 Gone.
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
	// StallFactor scales the straggler threshold: an idle worker may
	// steal a live lease once its holder has gone StallFactor times the
	// observed mean job duration (never less than one TTL) without
	// delivering a result. <= 0 defaults to 8.
	StallFactor float64
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
	// lease. Each grant carries the lease span's context as a
	// traceparent header, so worker-side spans parent under it in a
	// merged export (internal/obs/fleet).
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
	if o.StallFactor <= 0 {
		o.StallFactor = 8
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

// lease is one live grant. Revoked and completed leases are simply
// forgotten: any later operation on their id answers ErrLeaseGone,
// which is exactly what a worker holding a stale grant must hear.
type lease struct {
	id         string
	worker     string
	part       int
	granted    time.Time
	renewed    time.Time
	lastResult time.Time
	span       *obstrace.Span // child of the sweep span; nil when not tracing
}

// workerStat tracks one worker's liveness across its leases.
type workerStat struct {
	granted  uint64
	lastSeen time.Time
}

// LeaseGrant is the coordinator's answer to a lease request.
type LeaseGrant struct {
	// Status is "lease" (Keys/Spec are populated), "wait" (all parts are
	// leased; retry after RetryNS) or "done" (the sweep is complete).
	Status string `json:"status"`
	// Lease is the grant's id, quoted back on heartbeat/results/complete.
	Lease string `json:"lease,omitempty"`
	// Epoch is the granting coordinator's incarnation. Every operation on
	// the lease must quote it back; after a takeover the new coordinator
	// fences traffic carrying an older epoch (ErrStaleEpoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Part and Parts locate the granted partition.
	Part  int `json:"part,omitempty"`
	Parts int `json:"parts,omitempty"`
	// Keys are the part's still-unrecorded job keys, sorted. The worker
	// runs exactly these — after a steal, the new holder skips what the
	// old one already delivered.
	Keys []string `json:"keys,omitempty"`
	// Spec is the sweep to run; identical for every grant.
	Spec SweepSpec `json:"spec,omitempty"`
	// TTLNS is the heartbeat deadline, on wait grants too, where it
	// paces the waiting worker's fleet pushes; RetryNS is the suggested
	// wait-state poll interval.
	TTLNS   int64 `json:"ttl_ns,omitempty"`
	RetryNS int64 `json:"retry_ns,omitempty"`
	// Traceparent carries the lease span's context ("" when the
	// coordinator is not tracing): the worker opens its own lease span as
	// a remote child of it, which is what lets a merged trace export show
	// worker work nested under the coordinator's sweep.
	Traceparent string `json:"traceparent,omitempty"`
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
	Stolen     uint64         `json:"stolen"`
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
// report. All methods are safe for concurrent use.
type Coordinator struct {
	o    CoordinatorOptions
	spec SweepSpec

	mu       sync.Mutex
	universe map[string]int // job key → part
	parts    []*partState
	leases   map[string]*lease // live only
	done     map[string]json.RawMessage
	appender *runner.CheckpointAppender
	journal  *runner.CheckpointAppender // lease journal; nil after a write error (best-effort)
	epoch    uint64
	deposed  bool // a higher epoch is persisted: permanently fenced
	workers  map[string]*workerStat
	seq      int
	elapsed  int64 // summed ElapsedNS of first-time results
	granted  uint64
	expired  uint64
	stolen   uint64
	dups     uint64
	late     uint64
	restored int

	sweepSpan *obstrace.Span // ended exactly once, when the last job lands
	fleet     http.Handler   // mounted under /fleet/ when set

	finished  chan struct{}
	finishGen sync.Once

	// now is the clock; tests substitute a fake for deterministic
	// expiry/steal schedules.
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
		c.markDoneLocked(k, cv, 0)
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

	// The lease journal is advisory (salvaged loosely, appended
	// best-effort): losing it can cost observability, never correctness.
	// A torn tail from a killed predecessor is truncated before reopening
	// so new lines cannot glue onto garbage.
	if _, _, jerr := runner.SalvageCheckpoint(c.fs(), JournalPath(o.Ledger)); jerr != nil {
		c.logf("dist: lease journal %s unusable: %v", JournalPath(o.Ledger), jerr)
		o.Obs.Counter("dist.journal_errors").Inc()
	} else if j, jerr := runner.OpenCheckpointAppender(c.fs(), JournalPath(o.Ledger), false); jerr != nil {
		c.logf("dist: lease journal %s unusable: %v", JournalPath(o.Ledger), jerr)
		o.Obs.Counter("dist.journal_errors").Inc()
	} else {
		c.journal = j
	}
	c.journalLocked("epoch", "claimed", -1, "")

	c.checkFinishedLocked()
	return c, nil
}

// journalLocked appends one lease-state transition to the lease
// journal, best-effort: a journal that cannot be written is dropped
// (and counted) rather than failing the operation that triggered it.
func (c *Coordinator) journalLocked(leaseID, state string, part int, worker string) {
	if c.journal == nil {
		return
	}
	rec := struct {
		Epoch  uint64 `json:"epoch"`
		State  string `json:"state"`
		Part   int    `json:"part,omitempty"`
		Worker string `json:"worker,omitempty"`
		AtNS   int64  `json:"at_unix_ns"`
	}{Epoch: c.epoch, State: state, Part: part, Worker: worker, AtNS: c.now().UnixNano()}
	val, err := json.Marshal(rec)
	if err == nil {
		err = c.journal.Append(leaseID, val, 0)
	}
	if err != nil {
		c.logf("dist: lease journal: %v (journaling disabled)", err)
		c.o.Obs.Counter("dist.journal_errors").Inc()
		_ = c.journal.Close()
		c.journal = nil
	}
}

// SetFleet mounts h (the fleet federation surface, internal/obs/fleet)
// under /fleet/ on the coordinator's HTTP handler. Call before Serve.
func (c *Coordinator) SetFleet(h http.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fleet = h
}

// fleetHandler returns the mounted federation surface, nil if none.
func (c *Coordinator) fleetHandler() http.Handler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet
}

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
// it. reqEpoch is the epoch the request was fenced to; < 0 skips the
// request check (lease requests carry no epoch yet).
func (c *Coordinator) fenceLocked(reqEpoch int64) error {
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
		if c.journal != nil {
			_ = c.journal.Close()
			c.journal = nil
		}
		c.o.Obs.Counter("dist.deposed").Inc()
		c.logf("dist: epoch %d deposed by persisted epoch %d; fencing", c.epoch, cur)
		return fmt.Errorf("%w: coordinator epoch %d deposed by epoch %d", ErrStaleEpoch, c.epoch, cur)
	}
	if reqEpoch >= 0 && uint64(reqEpoch) != c.epoch {
		c.o.Obs.Counter("dist.stale_epoch_rejections").Inc()
		return fmt.Errorf("%w: request epoch %d, coordinator epoch %d", ErrStaleEpoch, reqEpoch, c.epoch)
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

// Close flushes and closes the ledger and lease journal. The
// coordinator stays queryable but refuses further results.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		_ = c.journal.Close()
		c.journal = nil
	}
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

// Lease grants the requesting worker a partition: the first unleased
// part with unrecorded keys, or — when every such part is taken — a
// stolen straggler. With nothing grantable it answers "wait", and once
// every key is recorded, "done". A deposed coordinator refuses to
// grant (ErrStaleEpoch): the worker's retry loop finds the successor.
func (c *Coordinator) Lease(worker string) (LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fenceLocked(-1); err != nil {
		return LeaseGrant{}, err
	}
	c.seenLocked(worker)
	c.expireLocked()
	if c.doneLocked() {
		return LeaseGrant{Status: GrantDone, Epoch: c.epoch}, nil
	}
	for _, p := range c.parts {
		if len(p.remaining) > 0 && p.leaseID == "" {
			return c.grantLocked(worker, p), nil
		}
	}
	if p := c.stealLocked(); p != nil {
		return c.grantLocked(worker, p), nil
	}
	return waitGrant(c.epoch, c.o.LeaseTTL), nil
}

// waitGrant tells a worker that nothing is leasable yet. It carries the
// lease TTL too, which paces the waiting worker's fleet pushes.
func waitGrant(epoch uint64, ttl time.Duration) LeaseGrant {
	return LeaseGrant{Status: GrantWait, Epoch: epoch, TTLNS: int64(ttl), RetryNS: int64(ttl / 4)}
}

// seenLocked refreshes a worker's last-seen instant.
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
	c.journalLocked(id, "granted", p.id, worker)
	c.logf("dist: lease %s: part %d/%d (%d keys) -> worker %s", id, p.id, len(c.parts), len(keys), worker)
	return LeaseGrant{
		Status:      GrantLease,
		Lease:       id,
		Epoch:       c.epoch,
		Part:        p.id,
		Parts:       len(c.parts),
		Keys:        keys,
		Spec:        c.spec,
		TTLNS:       int64(c.o.LeaseTTL),
		Traceparent: l.span.Context().Traceparent(),
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
			c.journalLocked(id, "expired", l.part, l.worker)
			c.revokeLocked(l)
		}
	}
}

// revokeLocked forgets a live lease and returns its part to the pool.
// The lease span ends here — whatever the cause (expiry, steal,
// completion, part exhaustion), the callers journal the outcome and the
// span just bounds the lease's lifetime.
func (c *Coordinator) revokeLocked(l *lease) {
	l.span.End()
	delete(c.leases, l.id)
	if p := c.parts[l.part]; p.leaseID == l.id {
		p.leaseID = ""
	}
}

// stealLocked picks a straggler lease to revoke: per-job span timings
// streamed with each result give a mean job duration, and a lease that
// has gone StallFactor times that mean (never less than one TTL)
// without delivering a result is slower than re-running its remainder
// elsewhere. Among stragglers the one holding the most unrecorded keys
// is stolen first; ties break on part id so the choice is
// deterministic.
func (c *Coordinator) stealLocked() *partState {
	jobs := len(c.done)
	if jobs == 0 || c.elapsed <= 0 {
		return nil // no timing signal yet: nothing to judge stragglers by
	}
	threshold := time.Duration(float64(c.elapsed/int64(jobs)) * c.o.StallFactor)
	if threshold < c.o.LeaseTTL {
		threshold = c.o.LeaseTTL
	}
	now := c.now()
	var victim *lease
	for _, l := range c.leases {
		p := c.parts[l.part]
		if len(p.remaining) == 0 {
			continue
		}
		last := l.lastResult
		if last.IsZero() {
			last = l.granted
		}
		if now.Sub(last) <= threshold {
			continue
		}
		if victim == nil ||
			len(p.remaining) > len(c.parts[victim.part].remaining) ||
			(len(p.remaining) == len(c.parts[victim.part].remaining) && l.part < victim.part) {
			victim = l
		}
	}
	if victim == nil {
		return nil
	}
	c.stolen++
	c.o.Obs.Counter("dist.leases_stolen").Inc()
	c.logf("dist: stealing lease %s (part %d, worker %s): no result for > %v",
		victim.id, victim.part, victim.worker, threshold)
	c.journalLocked(victim.id, "stolen", victim.part, victim.worker)
	p := c.parts[victim.part]
	c.revokeLocked(victim)
	return p
}

// Heartbeat renews a lease's TTL. ErrLeaseGone tells the worker its
// grant was revoked and the shard should be abandoned; ErrStaleEpoch
// tells it the coordinator changed and it must re-lease.
func (c *Coordinator) Heartbeat(leaseID string, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fenceLocked(int64(epoch)); err != nil {
		return err
	}
	c.expireLocked()
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.renewed = c.now()
	c.seenLocked(l.worker)
	return nil
}

// Results merges a batch of completed jobs into the ledger. Acceptance
// is idempotent and lease-independent: results are keyed by job hash,
// so duplicates with identical payloads are counted and dropped, late
// results from revoked leases are folded in (the work is done — the
// determinism contract makes it indistinguishable from the live
// holder's), and a payload that diverges from the recorded one rejects
// the whole batch before any ledger write. The fence check runs before
// anything else: a batch fenced to a stale epoch is rejected whole,
// pre-validation and pre-write, no matter what it contains. The error
// return is a fencing rejection (ErrStaleEpoch), a validation
// rejection (ErrDivergent/ErrForeignKey) or a ledger append failure.
func (c *Coordinator) Results(leaseID string, epoch uint64, entries []Entry) (accepted, duplicates int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fenceLocked(int64(epoch)); err != nil {
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
		c.markDoneLocked(a.key, a.val, a.ns)
		accepted++
	}
	if live {
		now := c.now()
		l.renewed = now
		if accepted > 0 {
			l.lastResult = now
		}
		c.seenLocked(l.worker)
	}
	c.o.Obs.Counter("dist.results_merged").Add(uint64(accepted))
	return accepted, duplicates, nil
}

// markDoneLocked records one merged result and advances part/sweep
// completion. A part whose last key arrives is done no matter which
// lease delivered it; its live lease, if any, is released on the spot.
func (c *Coordinator) markDoneLocked(key string, val json.RawMessage, elapsedNS int64) {
	c.done[key] = val
	c.elapsed += elapsedNS
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

// Complete acknowledges a worker's claim that its leased part is
// finished. It is idempotent: a live lease over an exhausted part
// answers "ok"; a revoked or unknown lease answers "superseded" (the
// results that mattered were already merged, or the part was re-leased
// — either way the worker is free to move on); a live lease whose part
// still has unrecorded keys is revoked and re-pooled, answering
// "incomplete". A stale epoch is an error: the worker must re-lease.
func (c *Coordinator) Complete(leaseID string, epoch uint64) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fenceLocked(int64(epoch)); err != nil {
		return "", err
	}
	c.expireLocked()
	l, ok := c.leases[leaseID]
	if !ok {
		return "superseded", nil
	}
	c.seenLocked(l.worker)
	p := c.parts[l.part]
	if len(p.remaining) > 0 {
		c.logf("dist: lease %s completed with %d keys unrecorded; re-pooling part %d", leaseID, len(p.remaining), l.part)
		c.journalLocked(leaseID, "incomplete", l.part, l.worker)
		c.revokeLocked(l)
		return "incomplete", nil
	}
	c.journalLocked(leaseID, "completed", l.part, l.worker)
	c.revokeLocked(l)
	return "ok", nil
}

// StatusSnapshot reports progress for /dist/v1/status and the tests:
// aggregate counters plus the per-partition lease ages and per-worker
// last-seen timestamps an auto-scaler (or a standby deciding whether
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
		Stolen:     c.stolen,
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
