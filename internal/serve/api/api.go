// Package api is the clone-and-simulate service: an HTTP front end over
// the content-addressed store (internal/serve/store) and the FIFO
// admission queue (internal/serve/queue).
//
// Clients upload profiles (or raw traces, profiled server-side), then
// submit jobs referencing them by content hash. Job identity is the
// digest of (profile hash × config hash), so resubmitting the same work
// dedups against the in-flight job and, once finished, is served
// straight from the result cache without consuming a queue slot; this
// package alone decides whether a submission duplicates a live job.
// Admitted jobs are journaled before they are queued. Each sweep job
// runs through a distributed coordinator (internal/dist) over its own
// checkpoint, with the service as its first worker and remote workers
// joining through /dist/v1/, so a killed server resumes its backlog on
// restart and finishes interrupted sweeps from the last merged point.
package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/trace"
)

// Job statuses, as reported by GET /v1/jobs/{id}.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Options configures a Service.
type Options struct {
	// Store is the content-addressed profile/result store (required).
	Store *store.Store
	// Queue configures admission: worker slots and backlog depth. Obs
	// is overridden with Options.Obs.
	Queue queue.Options
	// SweepWorkers is the runner pool size of the service's own sweep
	// worker (0 = every CPU). Clone and sim jobs are single simulations
	// and ignore it.
	SweepWorkers int
	// SweepParts partitions each sweep's job space for leasing (0 = 8),
	// and LeaseTTL is a lease's heartbeat deadline (0 = 30s); a worker
	// that stops pushing for one TTL reads stale on /fleet/status.
	SweepParts int
	LeaseTTL   time.Duration
	// Fsync hardens journal, result and sweep-ledger writes against
	// machine crashes rather than just process kills.
	Fsync bool
	// Obs collects service metrics (serve.api.*, serve.queue.*,
	// serve.store.*, dist.*) into one registry, exposed at /metrics
	// alongside the simulation instrumentation of the service's own
	// sweep work.
	Obs *obs.Registry
	// Tracer, when non-nil, records spans for sweep jobs, exposed at
	// /trace.
	Tracer *obstrace.Tracer
	// Logf, when non-nil, receives one line per service event (job
	// admitted/finished, recovery, rejections).
	Logf func(format string, args ...interface{})
}

// Service is the clone-and-simulate service. Create with New, then
// Start; serve Handler over HTTP.
type Service struct {
	o      Options
	st     *store.Store
	q      *queue.Queue
	sweeps *dist.Sweeps
	// fleet federates the remote sweep workers' pushes, under /fleet/.
	fleet http.Handler

	mu   sync.Mutex
	jobs map[string]*jobState
}

// jobState is the in-memory record of one submitted job. Fields after
// mu are guarded by it.
type jobState struct {
	id          string
	spec        JobSpec
	profileHash string
	configHash  string

	mu       sync.Mutex
	status   string
	cached   bool
	errMsg   string
	created  time.Time
	finished time.Time
	canceled bool              // user asked for cancellation
	sweep    *dist.Coordinator // live while a sweep coordinates, for /progress
}

// New builds a Service. The queue is not started; call Start.
func New(o Options) (*Service, error) {
	if o.Store == nil {
		return nil, fmt.Errorf("serve/api: Options.Store is required")
	}
	qo := o.Queue
	qo.Obs = o.Obs
	s := &Service{
		o:  o,
		st: o.Store,
		q:  queue.New(qo),
		sweeps: dist.NewSweeps(dist.CoordinatorOptions{
			Parts:    o.SweepParts,
			LeaseTTL: o.LeaseTTL,
			Fsync:    o.Fsync,
			Obs:      o.Obs,
			Trace:    o.Tracer,
			Logf:     o.Logf,
		}, o.SweepWorkers),
		jobs: make(map[string]*jobState),
	}
	s.fleet = fleet.New(fleet.Options{
		Self:     "gmap-served",
		Registry: o.Obs,
		Tracer:   o.Tracer,
		Status: func() interface{} {
			return map[string]interface{}{"dist": s.sweeps.Status(), "queue": s.q.Stats()}
		},
		Stale: o.LeaseTTL,
	}).Handler()
	return s, nil
}

// Start launches the queue workers under ctx and re-enqueues journaled
// jobs that never finished (crash recovery). Cancelling ctx drains the
// queue; journaled jobs interrupted by shutdown are recovered by the
// next Start.
func (s *Service) Start(ctx context.Context) error {
	s.q.Start(ctx)
	n, err := s.recover()
	if n > 0 {
		s.logf("recovered %d journaled job(s) into the queue", n)
	}
	return err
}

// Wait blocks until the queue has drained after context cancellation.
func (s *Service) Wait() { s.q.Wait() }

// ready backs /readyz: the service is ready while its admission queue
// still accepts submissions. Liveness (/healthz) stays 200 regardless,
// so a draining replica is distinguishable from a dead one.
func (s *Service) ready() error {
	if !s.q.Accepting() {
		return errors.New("job queue closed")
	}
	return nil
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.o.Logf != nil {
		s.o.Logf(format, args...)
	}
}

func (s *Service) counter(name string) *obs.Counter {
	return s.o.Obs.Counter(name)
}

// submit admits one normalized spec and returns its job state. Cache
// hits (cached=true: the result already exists, in memory or on disk)
// and duplicate in-flight submissions return immediately with
// admitted=false; a full queue returns queue.ErrFull.
func (s *Service) submit(spec JobSpec) (js *jobState, admitted, cached bool, err error) {
	profileHash, configHash, id, err := spec.hashes()
	if err != nil {
		return nil, false, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// In-flight (or remembered) job with the same identity: join it.
	if cur, ok := s.jobs[id]; ok {
		cur.mu.Lock()
		st := cur.status
		cur.mu.Unlock()
		if st != StatusFailed && st != StatusCanceled {
			if st == StatusDone {
				s.counter("serve.api.cache_hits").Inc()
				return cur, false, true, nil
			}
			s.counter("serve.api.joined_inflight").Inc()
			return cur, false, false, nil
		}
		// Failed or canceled earlier: fall through and resubmit fresh.
	}

	js = &jobState{
		id:          id,
		spec:        spec,
		profileHash: profileHash,
		configHash:  configHash,
		status:      StatusQueued,
		created:     time.Now(),
	}

	// Result already on disk (this process or a predecessor): serve it
	// from the cache without touching the queue.
	if _, ok, rerr := s.st.GetResult(profileHash, configHash); rerr == nil && ok {
		s.counter("serve.api.cache_hits").Inc()
		js.status = StatusDone
		js.cached = true
		js.finished = js.created
		s.jobs[id] = js
		return js, false, true, nil
	}
	s.counter("serve.api.cache_misses").Inc()

	// Journal first, then enqueue: a job is only ever queued with its
	// spec durably on disk, so a crash between the two re-enqueues it
	// on restart instead of losing it.
	env := jobEnvelope{Spec: spec, ProfileHash: profileHash, ConfigHash: configHash}
	if err := s.st.PutJobSpec(id, env); err != nil {
		return nil, false, false, fmt.Errorf("journal job: %w", err)
	}
	if err := s.enqueueLocked(js); err != nil {
		if derr := s.st.DeleteJobSpec(id); derr != nil {
			s.logf("retire journal %s after rejection: %v", id, derr)
		}
		return nil, false, false, err
	}
	return js, true, false, nil
}

// enqueueLocked registers js and hands it to the queue. Caller holds
// s.mu.
func (s *Service) enqueueLocked(js *jobState) error {
	err := s.q.Submit(queue.Job{
		ID:  js.id,
		Run: func(ctx context.Context) { s.execute(ctx, js) },
	})
	if err != nil {
		return err
	}
	s.jobs[js.id] = js
	return nil
}

// execute runs one admitted job to completion. It is the queue worker's
// body: by the time it runs, the job's spec is journaled and its inputs
// are pinned in the store.
func (s *Service) execute(ctx context.Context, js *jobState) {
	js.mu.Lock()
	if js.status == StatusCanceled {
		// cancel already finalized this job before dispatch.
		js.mu.Unlock()
		return
	}
	if js.canceled {
		s.retireJournal(js.id)
		js.status = StatusCanceled
		js.finished = time.Now()
		js.mu.Unlock()
		s.counter("serve.api.jobs_canceled").Inc()
		return
	}
	js.status = StatusRunning
	js.mu.Unlock()

	data, err := s.run(ctx, js)
	now := time.Now()
	if err == nil {
		if perr := s.st.PutResult(js.profileHash, js.configHash, data); perr != nil {
			err = fmt.Errorf("commit result: %w", perr)
		}
	}

	// A terminal status is published only after the journal entry is
	// retired, with js.mu held throughout: a resubmission, which reads
	// the status under js.mu, can then journal afresh without this
	// retirement deleting its entry.
	js.mu.Lock()
	js.sweep = nil
	js.finished = now
	switch {
	case err == nil:
		s.retireJournal(js.id)
		js.status = StatusDone
		js.mu.Unlock()
		s.counter("serve.api.jobs_done").Inc()
		s.logf("job %s (%s) done", js.id, js.spec.Kind)
	case js.canceled:
		s.retireJournal(js.id)
		js.status = StatusCanceled
		js.errMsg = "canceled"
		js.mu.Unlock()
		s.counter("serve.api.jobs_canceled").Inc()
		s.logf("job %s canceled", js.id)
	case ctx.Err() != nil:
		// Shutdown, not user cancellation: keep the journal (and any
		// sweep checkpoint) so the next Start resumes the job.
		js.status = StatusQueued
		js.errMsg = ""
		js.mu.Unlock()
		s.counter("serve.api.jobs_interrupted").Inc()
		s.logf("job %s interrupted by shutdown; journal retained for restart", js.id)
	default:
		s.retireJournal(js.id)
		js.status = StatusFailed
		js.errMsg = err.Error()
		js.mu.Unlock()
		s.counter("serve.api.jobs_failed").Inc()
		s.logf("job %s failed: %v", js.id, err)
	}
}

// retireJournal removes a finished job's spec (and checkpoint) from the
// store; the result, if any, is already committed.
func (s *Service) retireJournal(id string) {
	if err := s.st.DeleteJobSpec(id); err != nil {
		s.logf("retire journal %s: %v", id, err)
	}
}

// run produces the result bytes for one job.
func (s *Service) run(ctx context.Context, js *jobState) ([]byte, error) {
	switch js.spec.Kind {
	case KindClone:
		return s.runClone(js)
	case KindSim:
		return s.runSim(js)
	case KindSweep:
		return s.runSweep(ctx, js)
	default:
		return nil, fmt.Errorf("unknown job kind %q", js.spec.Kind)
	}
}

// cloneResult is the stored result of a clone job.
type cloneResult struct {
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	GridDim  int    `json:"grid_dim"`
	BlockDim int    `json:"block_dim"`
	Warps    int    `json:"warps"`
	Requests int    `json:"requests"`
	// ProxyB64 is the generated proxy in the binary warp-trace format
	// (trace.WriteWarpsBinary), base64-encoded for JSON transport.
	ProxyB64 string `json:"proxy_b64"`
}

func (s *Service) generate(js *jobState) (*synth.Proxy, error) {
	p, err := s.st.GetProfile(js.spec.Profile)
	if err != nil {
		return nil, err
	}
	return synth.Generate(p, synth.Options{
		Seed:           js.spec.Seed,
		ScaleFactor:    js.spec.ScaleFactor,
		Obfuscate:      js.spec.Obfuscate,
		ObfuscationKey: js.spec.Seed,
		Obs:            s.o.Obs,
	})
}

func (s *Service) runClone(js *jobState) ([]byte, error) {
	proxy, err := s.generate(js)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = trace.WriteWarpsBinary(&buf, &trace.WarpFile{
		Name:     proxy.Name,
		GridDim:  proxy.GridDim,
		BlockDim: proxy.BlockDim,
		Warps:    proxy.Warps,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(cloneResult{
		Kind:     KindClone,
		Name:     proxy.Name,
		GridDim:  proxy.GridDim,
		BlockDim: proxy.BlockDim,
		Warps:    len(proxy.Warps),
		Requests: proxy.Requests,
		ProxyB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
	})
}

// simResult is the stored result of a sim job.
type simResult struct {
	Kind     string         `json:"kind"`
	Name     string         `json:"name"`
	Warps    int            `json:"warps"`
	Requests int            `json:"requests"`
	Metrics  memsim.Metrics `json:"metrics"`
}

func (s *Service) runSim(js *jobState) ([]byte, error) {
	proxy, err := s.generate(js)
	if err != nil {
		return nil, err
	}
	cfg := memsim.DefaultConfig()
	if js.spec.Cores > 0 {
		cfg.NumCores = js.spec.Cores
	}
	sim, err := memsim.New(proxy.Warps, cfg)
	if err != nil {
		return nil, err
	}
	m, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(simResult{
		Kind:     KindSim,
		Name:     proxy.Name,
		Warps:    len(proxy.Warps),
		Requests: proxy.Requests,
		Metrics:  m,
	})
}

// sweepResult is the stored result of a sweep job: the rendered report,
// byte-identical to gmap-eval -no-timings with the same options.
type sweepResult struct {
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	Report     string `json:"report"`
}

func (s *Service) runSweep(ctx context.Context, js *jobState) ([]byte, error) {
	report, err := s.sweeps.Run(ctx, js.spec.SweepSpec, s.st.CheckpointPath(js.id), func(c *dist.Coordinator) {
		js.mu.Lock()
		js.sweep = c
		js.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweepResult{
		Kind:       KindSweep,
		Experiment: js.spec.Experiment,
		Report:     report,
	})
}

// cancel marks a job canceled and returns it, nil for an unknown id.
// Queued jobs are finalized immediately; running jobs get their context
// cancelled and finalize in execute.
func (s *Service) cancel(id string) *jobState {
	s.mu.Lock()
	js := s.jobs[id]
	s.mu.Unlock()
	if js == nil {
		return nil
	}
	js.mu.Lock()
	switch js.status {
	case StatusQueued:
		js.canceled = true
		js.mu.Unlock()
		// Remove from the backlog. If the queue already dispatched it,
		// execute observes canceled and finalizes; otherwise finalize
		// here.
		if s.q.Cancel(id) {
			js.mu.Lock()
			if js.status == StatusQueued {
				s.retireJournal(id) // before publishing, as in execute
				js.status = StatusCanceled
				js.finished = time.Now()
				js.mu.Unlock()
				s.counter("serve.api.jobs_canceled").Inc()
			} else {
				js.mu.Unlock()
			}
		}
	case StatusRunning:
		js.canceled = true
		js.mu.Unlock()
		s.q.Cancel(id)
	default:
		js.mu.Unlock()
	}
	return js
}

// recover re-enqueues every journaled job that has no committed result:
// the backlog of a predecessor process that was killed. Jobs whose
// result already exists (crash between PutResult and journal deletion)
// are retired directly. A journaled job the service already knows was
// submitted to this process before Start; submit decided its fate, so
// recovery leaves it alone.
func (s *Service) recover() (int, error) {
	specs, err := s.st.ListJobSpecs()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range sortedIDs(specs) {
		var env jobEnvelope
		if err := json.Unmarshal(specs[id], &env); err != nil {
			s.counter("serve.api.recovery_bad_specs").Inc()
			s.logf("recovery: job %s has an unreadable envelope: %v", id, err)
			continue
		}
		if _, ok, rerr := s.st.GetResult(env.ProfileHash, env.ConfigHash); rerr == nil && ok {
			s.retireJournal(id)
			continue
		}
		js := &jobState{
			id:          id,
			spec:        env.Spec,
			profileHash: env.ProfileHash,
			configHash:  env.ConfigHash,
			status:      StatusQueued,
			created:     time.Now(),
		}
		s.mu.Lock()
		if _, known := s.jobs[id]; known {
			s.mu.Unlock()
			continue
		}
		err := s.enqueueLocked(js)
		s.mu.Unlock()
		if err != nil {
			// Queue full: leave the journal for the next restart.
			s.logf("recovery: job %s not re-admitted (%v); journal retained", id, err)
			continue
		}
		s.counter("serve.api.recovered_jobs").Inc()
		n++
	}
	return n, nil
}

// jobView is the wire form of a job's state.
type jobView struct {
	Job         string `json:"job"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached,omitempty"`
	Error       string `json:"error,omitempty"`
	ProfileHash string `json:"profile_hash"`
	ConfigHash  string `json:"config_hash"`
	Experiment  string `json:"experiment,omitempty"`
	ResultURL   string `json:"result_url,omitempty"`
}

func (js *jobState) view() jobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	v := jobView{
		Job:         js.id,
		Kind:        js.spec.Kind,
		Status:      js.status,
		Cached:      js.cached,
		Error:       js.errMsg,
		ProfileHash: js.profileHash,
		ConfigHash:  js.configHash,
		Experiment:  js.spec.Experiment,
	}
	if js.status == StatusDone {
		v.ResultURL = "/v1/jobs/" + js.id + "/result"
	}
	return v
}

// progress returns a coordinating sweep's status, or nil.
func (js *jobState) progress() interface{} {
	js.mu.Lock()
	c := js.sweep
	js.mu.Unlock()
	if c == nil {
		return nil
	}
	st := c.StatusSnapshot()
	return &st
}
