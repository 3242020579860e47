package eval

import (
	"sync"
	"time"

	"github.com/uteda/gmap/internal/runner"
)

// liveProgress mirrors the newest runner event so a concurrent reader —
// the HTTP /progress endpoint — can snapshot a running sweep without
// touching the runner's internals. Shared (by pointer) across copies of
// one Options value, like exec.
type liveProgress struct {
	mu         sync.Mutex
	experiment string
	last       runner.Event
	updatedAt  time.Time
}

func (l *liveProgress) beginSweep(experiment string, total int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.experiment = experiment
	l.last = runner.Event{Total: total}
	l.updatedAt = time.Now()
	l.mu.Unlock()
}

func (l *liveProgress) note(e runner.Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.last = e
	l.updatedAt = time.Now()
	l.mu.Unlock()
}

// Progress is the live state of an evaluation run as served by the
// /progress endpoint: the current sweep's counters and rate, plus the
// accumulated execution summary across all sweeps so far.
type Progress struct {
	// Experiment is the sweep currently draining ("fig6a", "table1", ...).
	Experiment string `json:"experiment,omitempty"`
	// Completed/Failed/Skipped/Total mirror the runner's counters for
	// the current sweep.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
	Total     int `json:"total"`
	// JobsPerSec and ETASeconds are the current sweep's execution rate
	// and remaining-time estimate (0 until a rate is established).
	JobsPerSec float64 `json:"jobs_per_sec"`
	ETASeconds float64 `json:"eta_s"`
	// AgeSeconds is how long ago the last job finished — a stalled sweep
	// shows a growing age at a constant completed count.
	AgeSeconds float64 `json:"age_s"`
	// Exec accumulates runner statistics across every finished sweep of
	// this run.
	Exec runner.Stats `json:"exec"`
}

// ProgressSnapshot returns the run's live progress. Safe for concurrent
// use with a running evaluation; wire it into serve.Options.Progress.
func (o *Options) ProgressSnapshot() Progress {
	o.fillDefaults()
	o.live.mu.Lock()
	p := Progress{
		Experiment: o.live.experiment,
		Completed:  o.live.last.Completed,
		Failed:     o.live.last.Failed,
		Skipped:    o.live.last.Skipped,
		Total:      o.live.last.Total,
		JobsPerSec: o.live.last.JobsPerSec,
		ETASeconds: o.live.last.ETA.Seconds(),
	}
	if !o.live.updatedAt.IsZero() {
		p.AgeSeconds = time.Since(o.live.updatedAt).Seconds()
	}
	o.live.mu.Unlock()
	p.Exec = o.ExecStats()
	return p
}
