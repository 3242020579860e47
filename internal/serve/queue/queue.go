// Package queue is the clone-and-simulate service's admission-controlled
// execution queue: a bounded backlog with explicit rejection (the API
// layer maps ErrFull to 429 + Retry-After, so overload surfaces as
// backpressure instead of unbounded memory growth) drained in
// submission order by a fixed worker pool.
//
// The queue does not decide job identity. Its caller decides whether a
// submission duplicates live work; the queue indexes jobs by id only so
// that Cancel can find them.
package queue

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/obs"
)

// Submission errors. ErrFull is the backpressure signal: the caller
// should retry later (HTTP 429 + Retry-After at the API layer).
var (
	ErrFull   = errors.New("queue: backlog full")
	ErrClosed = errors.New("queue: closed")
)

// Job is one admitted unit of work. Run is invoked on a worker goroutine
// with a context that is cancelled when the job is cancelled or the
// queue shuts down; Run owns all result reporting (the queue never sees
// job outcomes).
type Job struct {
	ID  string
	Run func(ctx context.Context)
}

// Options configures a queue.
type Options struct {
	// Workers is the number of jobs executing concurrently; <= 0 means 1.
	Workers int
	// Depth bounds the admitted-but-not-yet-running backlog; a Submit
	// beyond it returns ErrFull. <= 0 means 64.
	Depth int
	// Obs, when non-nil, records queue instrumentation: depth/running
	// gauges, admission/rejection/completion counters and a
	// service-time histogram.
	Obs *obs.Registry
}

type entry struct {
	job    Job
	cancel context.CancelFunc // set while running
}

// Queue is an admission-controlled FIFO job queue.
type Queue struct {
	opts    Options
	workers int
	depth   int

	mu      sync.Mutex
	cond    *sync.Cond
	fifo    []*entry // the backlog, in submission order
	byID    map[string]*entry
	running int
	closed  bool
	started bool
	wg      sync.WaitGroup
}

// New builds a queue; call Start to begin draining it.
func New(opts Options) *Queue {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	depth := opts.Depth
	if depth <= 0 {
		depth = 64
	}
	q := &Queue{
		opts:    opts,
		workers: workers,
		depth:   depth,
		byID:    make(map[string]*entry),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Start launches the worker pool. Workers exit — after finishing their
// current job — once ctx is cancelled; running jobs see their own
// contexts cancelled at the same moment.
func (q *Queue) Start(ctx context.Context) {
	q.mu.Lock()
	if q.started {
		q.mu.Unlock()
		return
	}
	q.started = true
	q.mu.Unlock()
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker(ctx)
	}
	go func() {
		<-ctx.Done()
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}()
}

// Wait blocks until every worker has exited (queue closed via context
// cancellation and current jobs finished).
func (q *Queue) Wait() { q.wg.Wait() }

// Submit appends a job to the backlog, or rejects it with ErrFull
// (backlog at Depth) or ErrClosed. Admission is the only place memory
// grows, so a full queue rejects instead of buffering. A job submitted
// under the id of a running one takes over the id: Cancel then reaches
// the new job, and the old one's completion leaves it registered.
func (q *Queue) Submit(j Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.fifo) >= q.depth {
		q.opts.Obs.Counter("serve.queue.rejected").Inc()
		return ErrFull
	}
	e := &entry{job: j}
	q.fifo = append(q.fifo, e)
	q.byID[j.ID] = e
	q.opts.Obs.Counter("serve.queue.admitted").Inc()
	q.opts.Obs.Gauge("serve.queue.depth").Set(int64(len(q.fifo)))
	q.cond.Signal()
	return nil
}

// Cancel cancels a queued or running job by id. A queued job never
// runs; a running job has its context cancelled and is expected to wind
// down. Returns false for ids the queue is not currently holding.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	e := q.byID[id]
	if e == nil {
		q.mu.Unlock()
		return false
	}
	delete(q.byID, id)
	cancel := e.cancel // running: cancel outside the lock
	if cancel == nil {
		// Queued: leave the backlog now, freeing the slot.
		q.fifo = slices.DeleteFunc(q.fifo, func(x *entry) bool { return x == e })
		q.opts.Obs.Gauge("serve.queue.depth").Set(int64(len(q.fifo)))
	}
	q.opts.Obs.Counter("serve.queue.canceled").Inc()
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Stats is a point-in-time queue census, used by the API layer to size
// Retry-After hints.
type Stats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
}

// Stats returns the current census.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Queued: len(q.fifo), Running: q.running, Workers: q.workers, Depth: q.depth}
}

// Accepting reports whether Submit can still admit work — false once
// the queue's context has been cancelled. Backs the service's readiness
// probe: a draining process answers /healthz but not /readyz.
func (q *Queue) Accepting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed
}

func (q *Queue) worker(ctx context.Context) {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for !q.closed && len(q.fifo) == 0 {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		e := q.fifo[0]
		q.fifo = q.fifo[1:]
		q.opts.Obs.Gauge("serve.queue.depth").Set(int64(len(q.fifo)))
		jctx, cancel := context.WithCancel(ctx)
		e.cancel = cancel
		q.running++
		q.opts.Obs.Gauge("serve.queue.running").Set(int64(q.running))
		q.mu.Unlock()

		start := time.Now()
		e.job.Run(jctx)
		cancel()
		elapsed := time.Since(start)

		q.mu.Lock()
		q.running--
		q.opts.Obs.Gauge("serve.queue.running").Set(int64(q.running))
		// Remove only our own registration: a resubmission after a
		// cancel, or after this job failed, may have installed a fresh
		// entry under this id.
		if cur, live := q.byID[e.job.ID]; live && cur == e {
			delete(q.byID, e.job.ID)
		}
		q.opts.Obs.Counter("serve.queue.completed").Inc()
		q.opts.Obs.Histogram("serve.queue.service_ns").Observe(uint64(elapsed))
		q.mu.Unlock()
	}
}
