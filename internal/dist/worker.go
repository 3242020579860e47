package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// AddrFile, when non-empty, names a file holding the coordinator's
	// current address (host:port or URL). It is re-read before every
	// retry, so a coordinator restarted over the same ledger, which
	// rewrites the file, redirects the worker without any restart. The
	// file's address is preferred over Coordinator while it is readable.
	AddrFile string
	// Name identifies this worker in lease attribution and logs; empty
	// derives "host:pid".
	Name string
	// Workers sizes the local execution pool, exactly as on a serial run
	// (eval.Options.Workers). Pure execution detail: job keys and
	// payloads are unchanged.
	Workers int
	// Poll is the interval at which a waiting worker asks for a lease
	// again, and a failed request is retried; <= 0 defaults to 500ms.
	Poll time.Duration
	// Retries bounds how many times an unavailable-coordinator failure
	// (fault.IsUnavailable), or a lease request answered by a deposed
	// coordinator, is retried, one Poll apart, re-resolving the
	// coordinator's address before each try. The recovery budget is
	// Retries × Poll, and it must cover an operator's restart of a dead
	// coordinator; <= 0 defaults to a minute of retries at any Poll (120
	// at the default).
	Retries int
	// Obs, when non-nil, collects the local execution instrumentation
	// plus the retry counters (dist.lease_retries,
	// dist.heartbeat_retries, dist.delivery_retries).
	Obs *obs.Registry
	// Trace, when non-nil, records one span per lease, with the eval
	// pipeline's own spans nested under it. Its lease attribute equals
	// the one on the coordinator's span of the same lease, so a merged
	// fleet export shows which coordinator lease each worker span ran.
	Trace *obstrace.Tracer
	// Logf, when non-nil, receives worker progress lines.
	Logf func(format string, args ...interface{})
}

// client wraps the coordinator's HTTP surface. base is re-resolved
// before every retry, so it follows a restarted coordinator.
type client struct {
	mu   sync.Mutex
	base string
	hc   *http.Client
}

func (c *client) baseURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

func (c *client) setBase(b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.base = b
}

// apiErr lifts an HTTP error body back into the protocol's sentinel
// errors so worker logic can errors.Is on them across the wire: 410 is
// a gone lease, and a 409 maps to a sentinel through the body's
// machine-readable "code" field alone. 5xx responses are marked
// transient: the request itself is sound and the merge is idempotent,
// so retrying against a recovered (or successor) coordinator can
// succeed.
func (c *client) apiErr(status int, body []byte) error {
	msg := strings.TrimSpace(string(body))
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch status {
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrLeaseGone, msg)
	case http.StatusConflict:
		switch e.Code {
		case codeStaleEpoch:
			return fmt.Errorf("%w: %s", ErrStaleEpoch, msg)
		case codeDivergent:
			return fmt.Errorf("%w: %s", ErrDivergent, msg)
		case codeForeign:
			return fmt.Errorf("%w: %s", ErrForeignKey, msg)
		}
	}
	err := fmt.Errorf("dist: coordinator returned %d: %s", status, msg)
	if status >= 500 {
		return fault.Transient(err)
	}
	return err
}

// postJSON posts in as JSON to path and decodes the answer into out,
// unless out is nil.
func (c *client) postJSON(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL()+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("dist: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return c.apiErr(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("dist: decoding %s response: %w", path, err)
	}
	return nil
}

// remote speaks the lease protocol over HTTP under one context.
type remote struct {
	cl  *client
	ctx context.Context
}

func (r remote) Lease(worker string) (LeaseGrant, error) {
	var g LeaseGrant
	err := r.cl.postJSON(r.ctx, "/dist/v1/lease", leaseRequest{Worker: worker}, &g)
	return g, err
}

func (r remote) Heartbeat(worker, lease string, epoch uint64) error {
	return r.cl.postJSON(r.ctx, "/dist/v1/heartbeat", leaseOpRequest{leaseRequest{worker}, lease, epoch}, nil)
}

func (r remote) Results(worker, lease string, epoch uint64, entries []Entry) (int, int, error) {
	req := resultsRequest{leaseOpRequest: leaseOpRequest{leaseRequest{worker}, lease, epoch}, Entries: entries}
	var resp resultsResponse
	err := r.cl.postJSON(r.ctx, "/dist/v1/results", req, &resp)
	return resp.Accepted, resp.Duplicates, err
}

// worker bundles one lease loop's state: options, the coordinator it
// works for, the rediscovery/retry machinery and the eval options it
// reuses.
type worker struct {
	o WorkerOptions
	// cl is the HTTP client; nil in process, where c is the coordinator
	// and there is no address to re-resolve and no fleet to push to.
	cl   *client
	c    *Coordinator
	logf func(string, ...interface{})
	// spec and eo are the last lease's sweep and its eval options. Eval's
	// memos (prepared workloads, Fig 8 originals, ablation variants) live
	// on eo, so keeping it across a sweep's leases builds each once.
	spec SweepSpec
	eo   *eval.Options
	// pushed is when the wait state last pushed a fleet snapshot.
	pushed time.Time
}

// ops is the coordinator as the worker reaches it: in process, itself;
// otherwise over HTTP under ctx.
func (w *worker) ops(ctx context.Context) leaseOps {
	if w.cl == nil {
		return w.c
	}
	return remote{w.cl, ctx}
}

// normalizeEndpoint turns "host:port" or a URL into a base URL.
func normalizeEndpoint(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// endpoint resolves the coordinator's URL: the addr file's current
// content while it is readable (re-read on every call — a restarted
// coordinator rewrites it), otherwise Coordinator.
func (w *worker) endpoint() string {
	if w.o.AddrFile != "" {
		if data, err := os.ReadFile(w.o.AddrFile); err == nil {
			if e := normalizeEndpoint(string(data)); e != "" {
				return e
			}
		}
	}
	return normalizeEndpoint(w.o.Coordinator)
}

// rediscover re-resolves the coordinator's URL before a retry and
// switches to it when it moved.
func (w *worker) rediscover() {
	if w.cl == nil {
		return
	}
	cur, next := w.cl.baseURL(), w.endpoint()
	if next != "" && next != cur {
		w.o.Obs.Counter("dist.endpoint_rotations").Inc()
		w.logf("dist: worker %s: switching coordinator %s -> %s", w.o.Name, cur, next)
		w.cl.setBase(next)
	}
}

// retryable reports whether a coordinator-operation failure is worth
// retrying, possibly at a rediscovered address: unavailability, yes;
// protocol rejections (gone lease, stale epoch, divergence), no —
// those need a different request, not a different try.
func retryable(err error) bool {
	if errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrStaleEpoch) ||
		errors.Is(err, ErrDivergent) || errors.Is(err, ErrForeignKey) {
		return false
	}
	return fault.IsUnavailable(err)
}

// withRetry runs op, retrying unavailable-coordinator failures once per
// Poll, at most o.Retries times, and re-resolving the coordinator's
// address before each retry: a worker retrying is a worker waiting, and
// it finds a restarted coordinator within a Poll. Deliveries retried
// through here may double-send a result whose response was lost
// mid-flight; the coordinator's idempotent merge counts those as
// duplicates.
func (w *worker) withRetry(ctx context.Context, counter string, op func() error) error {
	for retry := 1; ; retry++ {
		err := op()
		if err == nil || !retryable(err) || ctx.Err() != nil || retry > w.o.Retries {
			return err
		}
		w.o.Obs.Counter(counter).Inc()
		w.logf("dist: worker %s: %s (retry %d/%d)", w.o.Name, err, retry, w.o.Retries)
		select {
		case <-time.After(w.o.Poll):
		case <-ctx.Done():
			return ctx.Err()
		}
		w.rediscover()
	}
}

// RunWorker joins the coordinator and processes leases until the sweep
// is done (returns nil), ctx is cancelled, or an unrecoverable error
// occurs (coordinator unreachable past the retry budget, simulation
// failure, divergence rejection). Losing a lease — to expiry, or to a
// restarted coordinator bumping the epoch — is not an error: the shard
// is abandoned mid-run and the loop asks the current coordinator for
// the next lease. A gmap-served endpoint never answers "done": its
// workers wait between sweeps until ctx ends.
//
// A worker with Obs or Trace set joins the coordinator's fleet view by
// push alone (POST /fleet/push): its registry snapshot after every
// successful heartbeat and, while waiting, at most once per TTL/3; its
// snapshot and span log at every lease end; and a final report on exit.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	if o.Coordinator == "" && o.AddrFile == "" {
		return errors.New("dist: worker requires a coordinator URL or addr file")
	}
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := newWorker(o, nil)
	w.cl = &client{hc: &http.Client{Timeout: 30 * time.Second}, base: w.endpoint()}
	if w.cl.base == "" {
		return errors.New("dist: no coordinator endpoint resolvable (addr file missing?)")
	}
	// Whatever ends this worker — sweep done, cancellation, an error —
	// its tallies and span log flush to the coordinator's federation
	// surface so short-lived workers still appear in the merged view.
	defer w.push(true, true, pushTimeout)
	return w.run(ctx)
}

// newWorker fills o's defaults. c, when non-nil, is the coordinator of
// an in-process worker, which runs the same lease loop as RunWorker but
// calls c directly.
func newWorker(o WorkerOptions, c *Coordinator) *worker {
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = max(1, int(time.Minute/o.Poll))
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &worker{o: o, c: c, logf: logf}
}

// run is the lease loop.
func (w *worker) run(ctx context.Context) error {
	o := w.o
	// In process, a wait ends the moment the sweep completes.
	var done <-chan struct{}
	if w.c != nil {
		done = w.c.Done()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var g LeaseGrant
		err := w.withRetry(ctx, "dist.lease_retries", func() error {
			var lerr error
			g, lerr = w.ops(ctx).Lease(o.Name)
			if errors.Is(lerr, ErrStaleEpoch) && w.cl != nil {
				// A deposed coordinator answered. A lease request carries
				// no epoch, so its successor can grant it once the address
				// resolves there: retry it like an unavailable one.
				lerr = fault.Transient(fmt.Errorf("dist: lease from deposed coordinator %s: %v", w.cl.baseURL(), lerr))
			}
			return lerr
		})
		if err != nil {
			return err
		}
		switch g.Status {
		case GrantDone:
			w.logf("dist: worker %s: sweep complete", o.Name)
			return nil
		case GrantWait:
			// A waiting worker heartbeats nothing, so it pushes on its own
			// to stay live in the fleet view.
			if ttl := time.Duration(g.TTLNS); ttl > 0 && time.Since(w.pushed) >= ttl/3 {
				w.pushed = time.Now()
				w.push(false, false, min(pushTimeout, ttl/3))
			}
			select {
			case <-time.After(o.Poll):
			case <-done:
			case <-ctx.Done():
				return ctx.Err()
			}
		case GrantLease:
			w.logf("dist: worker %s: leased part %d/%d epoch %d (%d keys)", o.Name, g.Part, g.Parts, g.Epoch, len(g.Keys))
			if err := w.runLease(ctx, g); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unknown grant status %q", g.Status)
		}
	}
}

// evalOptions returns the eval options of spec's sweep, kept from the
// previous lease when it was of the same sweep. Only one sweep's are
// kept, so a long-lived worker holds one sweep's prepared workloads.
func (w *worker) evalOptions(spec SweepSpec) *eval.Options {
	if w.eo == nil || !reflect.DeepEqual(spec, w.spec) {
		eo := spec.EvalOptions()
		eo.Workers = w.o.Workers
		eo.Obs = w.o.Obs
		eo.Trace = w.o.Trace
		w.spec, w.eo = spec, &eo
	}
	return w.eo
}

// runLease executes one granted shard: the sweep's own eval pipeline
// restricted (Shard) to the granted keys, streaming every completed
// point back as a checkpoint event (ResultSink), under a heartbeat
// goroutine that cancels the run the moment the lease is lost. A lost
// lease — expired, or fenced behind a restart's new epoch — abandons
// the shard without error: no new point starts, the points in flight
// finish and are delivered (as late results after an expiry; a fenced
// delivery is refused and dropped), and the remaining keys re-lease.
func (w *worker) runLease(ctx context.Context, g LeaseGrant) error {
	o := w.o
	logf := w.logf
	mine := make(map[string]bool, len(g.Keys))
	for _, k := range g.Keys {
		mine[k] = true
	}

	// The lease span's attributes match the coordinator's dist.lease
	// span of the same grant; installing it as default parent nests the
	// eval pipeline's own spans under it without the pipeline knowing
	// anything about distribution. Everything here is nil-safe: an
	// untraced worker takes one predictable branch per call.
	leaseSpan := o.Trace.Root("dist.worker.lease",
		obstrace.String("lease", g.Lease),
		obstrace.Int("epoch", int64(g.Epoch)),
		obstrace.Int("part", int64(g.Part)),
		obstrace.String("worker", o.Name),
		obstrace.Int("keys", int64(len(g.Keys))))
	o.Obs.Counter("dist.worker.leases").Inc()
	o.Obs.Counter("dist.worker.keys_leased").Add(uint64(len(g.Keys)))
	outcome := "ok"
	defer func() {
		o.Trace.SetDefaultParent(nil)
		leaseSpan.Set(obstrace.String("outcome", outcome))
		leaseSpan.End()
		w.push(false, true, pushTimeout)
	}()
	o.Trace.SetDefaultParent(leaseSpan)

	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()

	// abandon marks the lease lost (idempotently) and stops the shard.
	var lostOnce sync.Once
	lost := make(chan struct{})
	abandon := func(why error) {
		lostOnce.Do(func() {
			logf("dist: worker %s: lease %s lost: %v", o.Name, g.Lease, why)
			close(lost)
			cancelShard()
		})
	}

	// The heartbeat loop renews the lease at a third of its TTL and
	// abandons the shard when the coordinator says the lease is gone or
	// fenced — an expired holder starts no more of the work someone else
	// owns, and a worker fenced behind a restart re-leases under the
	// new epoch. A dropped heartbeat (coordinator restarting, transient
	// network fault) is retried, within the retry budget, rather than
	// taken as a verdict: only the coordinator decides lease death.
	// Each renewal is also the worker's fleet liveness signal: a snapshot
	// push (no span log — that waits for lease end), bounded to a third
	// of the TTL so a slow federator can never hold the next heartbeat
	// past the lease deadline.
	hbDone := make(chan struct{})
	ttl := time.Duration(g.TTLNS)
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-tick.C:
				err := w.withRetry(shardCtx, "dist.heartbeat_retries", func() error {
					return w.ops(shardCtx).Heartbeat(o.Name, g.Lease, g.Epoch)
				})
				switch {
				case err == nil:
					w.push(false, false, min(pushTimeout, ttl/3))
				case errors.Is(err, ErrLeaseGone), errors.Is(err, ErrStaleEpoch):
					abandon(err)
					return
				default:
					// Still unreachable after the retry budget: keep the
					// run going; lease death is the coordinator's call, not
					// ours, and the next tick retries afresh.
					logf("dist: worker %s: heartbeat: %v", o.Name, err)
				}
			}
		}
	}()

	eo := w.evalOptions(g.Spec)
	eo.Context = shardCtx
	eo.Shard = func(key string) bool { return mine[key] }
	// Every completed point is delivered at once. Deliveries ride ctx,
	// not shardCtx: results computed before an expiry are still worth
	// delivering (late results merge).
	eo.ResultSink = func(key string, value json.RawMessage, elapsed time.Duration) error {
		entries := []Entry{{Key: key, Value: value, ElapsedNS: elapsed.Nanoseconds()}}
		err := w.withRetry(ctx, "dist.delivery_retries", func() error {
			_, _, rerr := w.ops(ctx).Results(o.Name, g.Lease, g.Epoch, entries)
			return rerr
		})
		if errors.Is(err, ErrStaleEpoch) || errors.Is(err, ErrLeaseGone) {
			// The delivery was rejected whole by a fence (or the sweep was
			// retired). Drop it and abandon: the coordinator re-issues
			// every key it has no result for, and re-execution reproduces
			// identical payloads.
			abandon(err)
			return nil
		}
		return err
	}

	// The shard's assembled figures are garbage by construction (the
	// unexecuted keys stay zero): only the streamed per-key payloads
	// matter, so nothing is rendered and the tables are skipped.
	runErr := eo.RunSweeps(g.Spec.Experiment)
	cancelShard()
	<-hbDone

	select {
	case <-lost:
		// Not an error: someone else owns the part (or the epoch) now.
		outcome = "lost"
		return nil
	default:
	}
	switch {
	case runErr != nil && ctx.Err() != nil:
		outcome = "canceled"
		return ctx.Err()
	case runErr != nil:
		outcome = "error"
		return fmt.Errorf("dist: worker %s lease %s: %w", o.Name, g.Lease, runErr)
	}
	// Every key was delivered, and the last one ended the lease.
	logf("dist: worker %s: part %d delivered", o.Name, g.Part)
	return nil
}

// pushTimeout bounds lease-end and final pushes; heartbeat and
// wait-state pushes are further capped at a third of the lease TTL.
const pushTimeout = 2 * time.Second

// push ships the worker's metrics snapshot — plus its span log when
// spans is set — to the coordinator's fleet federation endpoint (POST
// /fleet/push), best-effort: a coordinator without a federator answers
// 404 and the report is simply dropped. An in-process worker never
// pushes: its registry and tracer are its coordinator's own. Pushes
// ride their own deadline, not the worker ctx — the final push happens
// exactly when the worker is exiting, possibly because that ctx was
// cancelled.
func (w *worker) push(final, spans bool, timeout time.Duration) {
	if w.cl == nil || (w.o.Obs == nil && w.o.Trace == nil) {
		return
	}
	pr := fleet.PushRequest{Worker: w.o.Name, Final: final}
	if w.o.Obs != nil {
		snap := w.o.Obs.Snapshot()
		pr.Snapshot = &snap
	}
	if spans && w.o.Trace != nil {
		pr.Trace = w.o.Trace.Events()
		pr.TraceOriginUnixNS = w.o.Trace.Origin().UnixNano()
	}
	body, err := json.Marshal(pr)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cl.baseURL()+"/fleet/push", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.cl.hc.Do(req)
	if err != nil {
		w.logf("dist: worker %s: fleet push: %v", w.o.Name, err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(res.Body, 4096))
	res.Body.Close()
}
