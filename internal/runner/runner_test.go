package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// intJobs builds n jobs where job i returns i*i, optionally delayed so
// completion order scrambles under parallelism.
func intJobs(n int, delay func(i int) time.Duration) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: JobKey("test", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) {
				if delay != nil {
					time.Sleep(delay(i))
				}
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestDeterministicOrdering(t *testing.T) {
	// Early jobs sleep longest, so under parallelism they finish last;
	// results must still come back in submission order.
	jobs := intJobs(16, func(i int) time.Duration {
		return time.Duration(16-i) * time.Millisecond
	})
	results, stats, err := Run(context.Background(), Options{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != i*i {
			t.Errorf("result %d = %d, want %d", i, r.Value, i*i)
		}
	}
	if stats.Completed != 16 || stats.Failed != 0 || stats.Skipped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Work == 0 {
		t.Error("work time not accumulated")
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	jobs := intJobs(32, nil)
	serial, _, err := Run(context.Background(), Options{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := Run(context.Background(), Options{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Value != parallel[i].Value {
			t.Errorf("job %d: serial %d vs parallel %d", i, serial[i].Value, parallel[i].Value)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := intJobs(8, nil)
	jobs[3].Run = func(ctx context.Context) (int, error) {
		panic("pathological config")
	}
	results, stats, err := Run(context.Background(), Options{Workers: 4}, jobs)
	if err != nil {
		t.Fatalf("run-level error: %v", err)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "panicked") {
		t.Errorf("panicking job error = %v", results[3].Err)
	}
	for i, r := range results {
		if i != 3 && r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
	}
	if stats.Failed != 1 || stats.Completed != 7 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestJobErrorDoesNotAbortRun(t *testing.T) {
	jobs := intJobs(6, nil)
	wantErr := errors.New("bad config")
	var runs atomic.Int32
	jobs[0].Run = func(ctx context.Context) (int, error) {
		runs.Add(1)
		return 0, wantErr
	}
	results, _, err := Run(context.Background(), Options{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, wantErr) {
		t.Errorf("results[0].Err = %v", results[0].Err)
	}
	// A deterministic job that failed once fails every time: its body
	// runs exactly once.
	if n := runs.Load(); n != 1 {
		t.Errorf("failing job body ran %d times, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil || results[i].Value != i*i {
			t.Errorf("job %d: %+v", i, results[i])
		}
	}
}

// TestJobSpanParentsBodySpans: the job's "runner.job" span rides its
// context, so a span the body begins (memsim's, in a sweep) is a direct
// child of the span of the job that ran it.
func TestJobSpanParentsBodySpans(t *testing.T) {
	tr := obstrace.New()
	jobs := intJobs(4, nil)
	for i := range jobs {
		key, run := jobs[i].Key, jobs[i].Run
		jobs[i].Run = func(ctx context.Context) (int, error) {
			obstrace.FromContext(ctx).Child("body", obstrace.String("key", key)).End()
			return run(ctx)
		}
	}
	root := tr.Root("sweep")
	if _, _, err := Run(context.Background(), Options{Workers: 2, TraceSpan: root}, jobs); err != nil {
		t.Fatal(err)
	}
	keyOf := func(e obstrace.Event) interface{} {
		for _, a := range e.Attrs {
			if a.Key == "key" {
				return a.Value
			}
		}
		return nil
	}
	events := tr.Events()
	byID := make(map[uint64]obstrace.Event, len(events))
	for _, e := range events {
		byID[e.ID] = e
	}
	bodies := 0
	for _, e := range events {
		if e.Name != "body" {
			continue
		}
		bodies++
		if p := byID[e.Parent]; p.Name != "runner.job" || keyOf(p) != keyOf(e) {
			t.Errorf("body span of %v has parent %q (key %v), want its runner.job span", keyOf(e), p.Name, keyOf(p))
		}
	}
	if bodies != len(jobs) {
		t.Errorf("%d body spans, want %d", bodies, len(jobs))
	}
}

func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: JobKey("cancel", fmt.Sprint(i)),
			Run: func(ctx context.Context) (int, error) {
				if started.Add(1) == 4 {
					cancel()
				}
				time.Sleep(2 * time.Millisecond)
				return i, nil
			},
		}
	}
	results, stats, err := Run(ctx, Options{Workers: 2}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var unrun int
	for _, r := range results {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			unrun++
		}
	}
	if unrun == 0 {
		t.Error("no job recorded the cancellation")
	}
	if stats.Completed+stats.Failed >= len(jobs) {
		t.Errorf("cancellation did not stop dispatch: %+v", stats)
	}
}

// TestCancelWaitsForStartedJobs: a cancelled Run returns only after
// every job body it started has returned, even bodies that ignore their
// context, and records each started job's own result. No job outlives
// its Run.
func TestCancelWaitsForStartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 4
	var running, started atomic.Int32
	ran := make([]atomic.Bool, 8)
	jobs := make([]Job[int], len(ran))
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: JobKey("wait", fmt.Sprint(i)),
			Run: func(context.Context) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				ran[i].Store(true)
				if started.Add(1) == workers {
					cancel()
				}
				time.Sleep(50 * time.Millisecond)
				return i, nil
			},
		}
	}
	results, _, err := Run(ctx, Options{Workers: workers}, jobs)
	if n := running.Load(); n != 0 {
		t.Fatalf("%d job bodies still running after Run returned", n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		switch {
		case ran[i].Load() && (r.Err != nil || r.Value != i):
			t.Errorf("started job %d recorded %+v, want its value %d", i, r, i)
		case !ran[i].Load() && !errors.Is(r.Err, context.Canceled):
			t.Errorf("unstarted job %d recorded %+v, want a cancellation", i, r)
		}
	}
}

func TestEventsAccountForEveryJob(t *testing.T) {
	jobs := intJobs(10, nil)
	jobs[2].Run = func(ctx context.Context) (int, error) { return 0, errors.New("x") }
	var events []Event
	_, stats, err := Run(context.Background(), Options{
		Workers: 4,
		OnEvent: func(e Event) { events = append(events, e) },
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10", len(events))
	}
	last := events[len(events)-1]
	if last.Finished() != 10 {
		t.Errorf("last event finished = %d", last.Finished())
	}
	var failed int
	for _, e := range events {
		if e.Kind == JobFailed {
			failed++
		}
	}
	if failed != 1 || stats.Failed != 1 {
		t.Errorf("failed events = %d, stats = %+v", failed, stats)
	}
	if line := last.ProgressLine(); !strings.Contains(line, "10/10 jobs") {
		t.Errorf("progress line = %q", line)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Total: 4, Completed: 3, Failed: 1, Wall: time.Second, Work: 2 * time.Second}
	b := Stats{Total: 2, Skipped: 2, Wall: time.Second}
	sum := a.Add(b)
	if sum.Total != 6 || sum.Completed != 3 || sum.Failed != 1 || sum.Skipped != 2 {
		t.Errorf("sum = %+v", sum)
	}
	if sum.JobsPerSec != 2 {
		t.Errorf("jobs/sec = %v, want 2", sum.JobsPerSec)
	}
}

func TestZeroJobs(t *testing.T) {
	results, stats, err := Run(context.Background(), Options{}, []Job[int]{})
	if err != nil || len(results) != 0 || stats.Total != 0 {
		t.Errorf("empty run: results=%v stats=%+v err=%v", results, stats, err)
	}
}

func TestJobKeyProperties(t *testing.T) {
	if JobKey("a", "b") != JobKey("a", "b") {
		t.Error("JobKey not stable")
	}
	if JobKey("a", "b") == JobKey("b", "a") {
		t.Error("JobKey ignores order")
	}
	// Length prefixing: shifting a byte across a part boundary must not
	// collide.
	if JobKey("ab", "c") == JobKey("a", "bc") {
		t.Error("JobKey collides across part boundaries")
	}
	if len(JobKey("x")) != 24 {
		t.Errorf("JobKey length = %d, want 24 hex chars", len(JobKey("x")))
	}
}
