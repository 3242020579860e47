// Package runner is the experiment-execution engine behind the
// evaluation harness: a fixed-size worker pool draining a bounded job
// queue with deterministic result ordering, per-job panic isolation,
// context cancellation, JSONL checkpoint/resume keyed by stable job
// hashes, and an instrumentation hook reporting progress (jobs/sec, ETA)
// plus a machine-readable run summary.
//
// Jobs must be independent and deterministic: given the same key they
// must compute the same value on every run. Under that contract a
// parallel run is observably identical to a serial one (results come
// back in submission order), and a checkpointed value recorded by an
// interrupted run can substitute for re-execution. It is also why each
// job runs exactly once, to completion: a job that failed would fail the
// same way again, so the runner records the failure instead of retrying
// it, and nothing bounds or abandons a job in flight.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// Options configures one Run.
type Options struct {
	// Workers is the worker-pool size; <= 0 selects runtime.NumCPU().
	Workers int
	// Checkpoint, when non-empty, names a JSONL file successful job
	// results are streamed to as they complete, keyed by Job.Key. A torn
	// trailing line — the signature of a killed run — is truncated from
	// it before the first append, with or without Resume. A checkpoint
	// append that fails aborts the run: progress that cannot be recorded
	// must not be silently recomputed-from-zero later.
	Checkpoint string
	// Resume loads Checkpoint before running and skips jobs whose key
	// already has a recorded value (failed jobs are never recorded, so
	// they re-run).
	Resume bool
	// ResumeStrict upgrades a total resume mismatch from a silent full
	// re-run to an error: if the checkpoint holds entries but not one of
	// them matches any of this run's job keys, the checkpoint was
	// recorded by a different sweep (other experiment, seed, scale, ...)
	// and Run fails naming the first mismatched job key and a sample
	// checkpoint key, instead of quietly recomputing everything and
	// interleaving a second universe into the file. A partial overlap is
	// a normal resume and never errors.
	ResumeStrict bool
	// Fsync, when set, syncs the checkpoint file after every append,
	// extending the durability guarantee from process death to machine
	// crash at the cost of one fsync per job.
	Fsync bool
	// FS routes all checkpoint I/O; nil selects the real filesystem.
	// Tests substitute a fault.InjectFS to exercise crash consistency.
	FS fault.FS
	// OnEvent, when non-nil, receives one Event per finished job (done,
	// failed, or skipped). Events are delivered serially.
	OnEvent func(Event)
	// Sink, when non-nil, receives each successfully executed job's
	// result as a checkpoint event — the key, the marshaled JSON value
	// (the exact bytes a checkpoint line would carry), and the job's
	// execution time. Calls are serialized and happen after any
	// checkpoint append; restored (Skipped) jobs are not re-delivered. A
	// sink failure aborts the run like a failed checkpoint append: work
	// whose results cannot be delivered must not silently continue. The
	// distributed worker streams results to its coordinator through this
	// seam.
	Sink func(key string, value json.RawMessage, elapsed time.Duration) error
	// Obs, when non-nil, records execution instrumentation: per-job wall
	// time ("runner.job_ns"), checkpoint-append latency
	// ("runner.checkpoint_append_ns"), job outcome counters,
	// checkpoint-salvage counters and the pool size ("runner.workers").
	// Purely observational: results, ordering and checkpoints are
	// identical with or without it.
	Obs *obs.Registry
	// TraceSpan, when non-nil, parents hierarchical spans of the run (e.g.
	// under a figure sweep): a "runner.run" span, one "runner.worker" lane
	// per pool worker, a "runner.job" span per executed job, and
	// checkpoint-append spans. Purely observational, like Obs.
	TraceSpan *obstrace.Span
}

// fs returns the effective checkpoint filesystem.
func (o *Options) fs() fault.FS {
	if o.FS == nil {
		return fault.OS
	}
	return o.FS
}

// Job is one unit of work. Key is the job's stable identity across
// process restarts (see JobKey); it must be unique within a Run when
// checkpointing is enabled.
type Job[R any] struct {
	Key string
	Run func(ctx context.Context) (R, error)
}

// Result pairs one job with its outcome. Run returns results in
// submission order regardless of completion order.
type Result[R any] struct {
	Key   string
	Value R
	// Err records this job's failure (error return, panic, or
	// cancellation before dispatch) without aborting the rest of the run.
	Err error
	// Skipped marks a value restored from the checkpoint rather than
	// recomputed.
	Skipped bool
	// Elapsed is the job's wall-clock execution time (0 when Skipped).
	Elapsed time.Duration
}

// Run drains jobs through a worker pool and returns one Result per job,
// in order. Individual job failures are recorded in their Result and do
// not abort the run; the returned error is non-nil only for
// infrastructure failures (unusable or unwritable checkpoint file) or
// context cancellation, in which case already-computed results are still
// returned. A cancellation stops dispatch, not the jobs in flight: Run
// returns once every job it started has returned, with their results
// recorded like any other.
func Run[R any](ctx context.Context, opts Options, jobs []Job[R]) ([]Result[R], Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]Result[R], len(jobs))
	done := make([]bool, len(jobs))
	tr := newTracker(len(jobs), workers, opts.OnEvent)
	runSpan := opts.TraceSpan.Child("runner.run",
		obstrace.Int("jobs", int64(len(jobs))), obstrace.Int("workers", int64(workers)))
	defer runSpan.End()
	jobTime := opts.Obs.Histogram("runner.job_ns")
	ckptTime := opts.Obs.Histogram("runner.checkpoint_append_ns")
	jobsDone := opts.Obs.Counter("runner.jobs_done")
	jobsFailed := opts.Obs.Counter("runner.jobs_failed")
	jobsSkipped := opts.Obs.Counter("runner.jobs_skipped")
	opts.Obs.Gauge("runner.workers").Set(int64(workers))

	// Salvage makes a named checkpoint append-safe again, resumed or
	// not: a torn tail is truncated so the next entry cannot glue onto
	// it and be lost on a later resume. A resumed run restores the
	// recorded results before dispatching anything so the pool only
	// sees genuinely pending work.
	var restored map[string]json.RawMessage
	var restoredSample string
	if opts.Checkpoint != "" {
		m, salvage, err := SalvageCheckpoint(opts.fs(), opts.Checkpoint)
		if err != nil {
			return results, tr.stats(), err
		}
		recordSalvage(opts.Obs, salvage)
		if opts.Resume {
			restored = m
			restoredSample = salvage.FirstKey
		}
	}
	var pending []int
	matched := 0
	for i := range jobs {
		if raw, ok := restored[jobs[i].Key]; ok {
			matched++
			var v R
			if err := json.Unmarshal(raw, &v); err == nil {
				results[i] = Result[R]{Key: jobs[i].Key, Value: v, Skipped: true}
				done[i] = true
				jobsSkipped.Inc()
				tr.finish(JobSkipped, jobs[i].Key, nil, 0)
				continue
			}
			// Unreadable entry (e.g. the job's result type changed):
			// fall through and recompute.
		}
		pending = append(pending, i)
	}
	if opts.ResumeStrict && len(restored) > 0 && len(jobs) > 0 && matched == 0 {
		opts.Obs.Counter("runner.resume_mismatches").Inc()
		return results, tr.stats(), fmt.Errorf(
			"runner: resume mismatch: checkpoint %s holds %d recorded job(s) (e.g. key %s) but none match this run's %d job(s) (first job key %s); it was recorded by a different sweep — point -checkpoint at the matching file or remove it",
			opts.Checkpoint, len(restored), restoredSample, len(jobs), jobs[0].Key)
	}

	var ckpt *checkpointWriter
	if opts.Checkpoint != "" {
		w, err := openCheckpoint(opts.fs(), opts.Checkpoint, opts.Fsync)
		if err != nil {
			return results, tr.stats(), err
		}
		ckpt = w
	}

	// A checkpoint append that fails cancels the whole run: continuing
	// would execute jobs whose results are silently unrecorded.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var ckptErr error // guarded by mu; first append failure wins

	// The queue is bounded by the pool size so a huge sweep never
	// materializes as channel backlog, and the feeder notices
	// cancellation promptly.
	queue := make(chan int, workers)
	var mu sync.Mutex // serializes tracker events, checkpoint appends, ckptErr
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker gets its own trace lane so its serially-executed
			// job spans nest cleanly instead of overlapping siblings'.
			workerSpan := runSpan.ChildTrack("runner.worker", obstrace.Int("worker", int64(w)))
			defer workerSpan.End()
			for idx := range queue {
				if runCtx.Err() != nil {
					continue // leave the job unexecuted; marked below
				}
				jobSpan := workerSpan.Child("runner.job", obstrace.String("key", jobs[idx].Key))
				res := execute(runCtx, jobs[idx], jobSpan)
				if res.Err != nil {
					jobSpan.Set(obstrace.String("error", res.Err.Error()))
				}
				jobSpan.End()
				results[idx] = res
				done[idx] = true
				jobTime.Observe(uint64(res.Elapsed))
				mu.Lock()
				if res.Err == nil && ckpt != nil && ckptErr == nil {
					ckptSpan := workerSpan.Child("runner.checkpoint", obstrace.String("key", res.Key))
					ckptStart := time.Now()
					if err := ckpt.append(res.Key, res.Value, res.Elapsed); err != nil {
						ckptErr = fmt.Errorf("runner: checkpoint append to %s failed: %w", opts.Checkpoint, err)
						cancelRun()
					}
					ckptTime.Observe(uint64(time.Since(ckptStart)))
					ckptSpan.End()
				}
				if res.Err == nil && opts.Sink != nil && ckptErr == nil {
					raw, merr := json.Marshal(res.Value)
					if merr == nil {
						merr = opts.Sink(res.Key, raw, res.Elapsed)
					}
					if merr != nil {
						ckptErr = fmt.Errorf("runner: result sink for job %q failed: %w", res.Key, merr)
						cancelRun()
					}
				}
				if res.Err != nil {
					jobsFailed.Inc()
					tr.finish(JobFailed, res.Key, res.Err, res.Elapsed)
				} else {
					jobsDone.Inc()
					tr.finish(JobDone, res.Key, nil, res.Elapsed)
				}
				mu.Unlock()
			}
		}(w)
	}
feed:
	for _, idx := range pending {
		select {
		case queue <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()

	var err error
	if ckpt != nil {
		if cerr := ckpt.close(); cerr != nil && ckptErr == nil {
			ckptErr = fmt.Errorf("runner: closing checkpoint %s: %w", opts.Checkpoint, cerr)
		}
	}
	switch {
	case ckptErr != nil:
		err = ckptErr
	case ctx.Err() != nil:
		err = ctx.Err()
	}
	if err != nil {
		for _, idx := range pending {
			if !done[idx] {
				results[idx] = Result[R]{Key: jobs[idx].Key, Err: fmt.Errorf("runner: job %q not run: %w", jobs[idx].Key, err)}
			}
		}
	}
	return results, tr.stats(), err
}

// recordSalvage mirrors checkpoint-recovery outcomes into obs counters.
func recordSalvage(reg *obs.Registry, s Salvage) {
	if reg == nil {
		return
	}
	if s.TornBytes > 0 {
		reg.Counter("runner.checkpoint_torn_bytes").Add(uint64(s.TornBytes))
	}
	if s.BadLines > 0 {
		reg.Counter("runner.checkpoint_bad_lines").Add(uint64(s.BadLines))
	}
	if s.Truncated {
		reg.Counter("runner.checkpoint_salvages").Inc()
	}
}

// execute runs one job to completion on the calling worker. A panic
// fails the job alone: the worker, and the process around it (a service
// runs sweeps in process), carry on.
func execute[R any](ctx context.Context, job Job[R], span *obstrace.Span) (res Result[R]) {
	res.Key = job.Key
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("runner: job %q panicked: %v", job.Key, p)
		}
		res.Elapsed = time.Since(start)
	}()
	// The job span rides the job context so the body can parent its own
	// spans (e.g. memsim.run) under this job.
	res.Value, res.Err = job.Run(obstrace.NewContext(ctx, span))
	return res
}
