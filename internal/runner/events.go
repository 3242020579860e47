package runner

import (
	"fmt"
	"time"
)

// EventKind classifies a finished job.
type EventKind int

// Event kinds.
const (
	// JobDone is a successfully executed job.
	JobDone EventKind = iota
	// JobFailed is a job that returned an error, panicked, or timed out.
	JobFailed
	// JobSkipped is a job whose result was restored from the checkpoint.
	JobSkipped
)

// String returns "done", "failed" or "skipped".
func (k EventKind) String() string {
	switch k {
	case JobFailed:
		return "failed"
	case JobSkipped:
		return "skipped"
	default:
		return "done"
	}
}

// Event is one progress notification, carrying the finished job and a
// snapshot of the run's counters at that moment.
type Event struct {
	Kind    EventKind
	Key     string
	Err     error
	Elapsed time.Duration
	// Completed, Failed and Skipped count finished jobs so far; Total is
	// the run's job count.
	Completed, Failed, Skipped, Total int
	// JobsPerSec is the execution rate over executed (non-skipped) jobs.
	JobsPerSec float64
	// ETA estimates the remaining wall time at the current rate (0 until
	// a rate is established).
	ETA time.Duration
}

// Finished returns the number of jobs accounted for so far.
func (e Event) Finished() int { return e.Completed + e.Failed + e.Skipped }

// ProgressLine renders the event as a one-line live status, e.g.
//
//	123/400 jobs  31.8 jobs/s  eta 8s  (2 failed, 40 resumed)
func (e Event) ProgressLine() string {
	s := fmt.Sprintf("%d/%d jobs", e.Finished(), e.Total)
	if e.JobsPerSec > 0 {
		s += fmt.Sprintf("  %.1f jobs/s", e.JobsPerSec)
	}
	if e.ETA > 0 {
		s += fmt.Sprintf("  eta %s", e.ETA.Round(time.Second))
	}
	if e.Failed > 0 || e.Skipped > 0 {
		s += fmt.Sprintf("  (%d failed, %d resumed)", e.Failed, e.Skipped)
	}
	return s
}

// Stats is the machine-readable summary of one Run (or, via Add, of a
// sequence of runs).
type Stats struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
	// Retries is always 0: every job runs once. The field stays so the
	// summary JSON keeps its shape for the readers that still parse it
	// (the bench harness's runner.retries metric).
	Retries int `json:"retries"`
	// Wall is the pool's wall-clock time; Work is the summed per-job
	// execution time across all workers. Work/Wall approximates the
	// effective parallelism.
	Wall time.Duration `json:"wall_ns"`
	Work time.Duration `json:"work_ns"`
	// JobsPerSec is the executed-job throughput over Wall.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Workers is the pool size the run resolved to (the largest pool when
	// summaries are merged with Add).
	Workers int `json:"workers"`
	// Utilization is Work / (Wall × Workers): the fraction of the pool's
	// available worker-time spent executing jobs. 1.0 means every worker
	// was busy the whole run; low values signal feed starvation, skew, or
	// a pool larger than the job list.
	Utilization float64 `json:"utilization"`
}

// Add merges two summaries, recomputing the aggregate rate.
func (s Stats) Add(o Stats) Stats {
	out := Stats{
		Total:     s.Total + o.Total,
		Completed: s.Completed + o.Completed,
		Failed:    s.Failed + o.Failed,
		Skipped:   s.Skipped + o.Skipped,
		Wall:      s.Wall + o.Wall,
		Work:      s.Work + o.Work,
		Workers:   max(s.Workers, o.Workers),
	}
	if out.Wall > 0 {
		out.JobsPerSec = float64(out.Completed+out.Failed) / out.Wall.Seconds()
		if out.Workers > 0 {
			out.Utilization = float64(out.Work) / (float64(out.Wall) * float64(out.Workers))
		}
	}
	return out
}

// tracker accumulates counters and emits events. finish must be called
// serially (Run holds a mutex around it).
type tracker struct {
	start                      time.Time
	total, workers             int
	onEvent                    func(Event)
	completed, failed, skipped int
	work                       time.Duration
}

func newTracker(total, workers int, onEvent func(Event)) *tracker {
	return &tracker{start: time.Now(), total: total, workers: workers, onEvent: onEvent}
}

func (t *tracker) finish(kind EventKind, key string, err error, elapsed time.Duration) {
	switch kind {
	case JobFailed:
		t.failed++
	case JobSkipped:
		t.skipped++
	default:
		t.completed++
	}
	t.work += elapsed
	if t.onEvent == nil {
		return
	}
	e := Event{
		Kind: kind, Key: key, Err: err, Elapsed: elapsed,
		Completed: t.completed, Failed: t.failed, Skipped: t.skipped, Total: t.total,
	}
	executed := t.completed + t.failed
	if wall := time.Since(t.start); wall > 0 && executed > 0 {
		e.JobsPerSec = float64(executed) / wall.Seconds()
		if remaining := t.total - e.Finished(); remaining > 0 {
			e.ETA = time.Duration(float64(remaining) / e.JobsPerSec * float64(time.Second))
		}
	}
	t.onEvent(e)
}

func (t *tracker) stats() Stats {
	s := Stats{
		Total:     t.total,
		Completed: t.completed,
		Failed:    t.failed,
		Skipped:   t.skipped,
		Wall:      time.Since(t.start),
		Work:      t.work,
		Workers:   t.workers,
	}
	if s.Wall > 0 {
		s.JobsPerSec = float64(s.Completed+s.Failed) / s.Wall.Seconds()
		if s.Workers > 0 {
			s.Utilization = float64(s.Work) / (float64(s.Wall) * float64(s.Workers))
		}
	}
	return s
}
