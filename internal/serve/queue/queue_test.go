package queue_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/serve/queue"
)

// TestFIFOOrder: jobs dispatch in submission order, and a job cancelled
// while queued never runs. Submitting everything before starting the
// single worker makes the order deterministic.
func TestFIFOOrder(t *testing.T) {
	const n = 20
	q := queue.New(queue.Options{Workers: 1, Depth: n})
	var mu sync.Mutex
	var order, want []string
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%02d", i)
		if i != 7 {
			want = append(want, id)
		}
		err := q.Submit(queue.Job{ID: id, Run: func(context.Context) {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, id)
			if len(order) == n-1 {
				close(done)
			}
		}})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	if !q.Cancel("j07") {
		t.Fatal("cancel of queued job reported not found")
	}
	ctx, cancel := context.WithCancel(context.Background())
	q.Start(ctx)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("queue did not drain")
	}
	cancel()
	q.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestCancelFreesSlot: cancelling a queued job frees its backlog slot at
// once, with no worker running, so a full depth-1 queue admits the job's
// resubmission; only the resubmission runs.
func TestCancelFreesSlot(t *testing.T) {
	q := queue.New(queue.Options{Workers: 1, Depth: 1})
	ran := make(chan string, 2)
	job := func(run string) queue.Job {
		return queue.Job{ID: "aa", Run: func(context.Context) { ran <- run }}
	}
	if err := q.Submit(job("first")); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(queue.Job{ID: "bb", Run: func(context.Context) {}}); !errors.Is(err, queue.ErrFull) {
		t.Fatalf("submit to a full queue: %v, want ErrFull", err)
	}
	if !q.Cancel("aa") {
		t.Fatal("cancel of queued job reported not found")
	}
	if err := q.Submit(job("second")); err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.Start(ctx)
	if r := <-ran; r != "second" {
		t.Fatalf("dispatched the %s submission, want only the second", r)
	}
}

func TestAdmissionControl(t *testing.T) {
	q := queue.New(queue.Options{Workers: 1, Depth: 2})
	mk := func(id string) queue.Job {
		return queue.Job{ID: id, Run: func(ctx context.Context) {}}
	}
	if err := q.Submit(mk("aa")); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(mk("bb")); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(mk("cc")); !errors.Is(err, queue.ErrFull) {
		t.Fatalf("over-depth submit: %v, want ErrFull", err)
	}
	st := q.Stats()
	if st.Queued != 2 || st.Depth != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	q := queue.New(queue.Options{Workers: 1, Depth: 8})
	ran := make(chan string, 8)
	block := make(chan struct{})
	mk := func(id string) queue.Job {
		return queue.Job{ID: id, Run: func(ctx context.Context) {
			ran <- id
			if id == "gate" {
				<-block
			}
		}}
	}
	// gate occupies the worker; victim sits queued and gets cancelled.
	if err := q.Submit(queue.Job{ID: "gate", Run: mk("gate").Run}); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(mk("victim")); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(mk("after")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.Start(ctx)
	if id := <-ran; id != "gate" {
		t.Fatalf("first dispatch %q, want gate", id)
	}
	if !q.Cancel("victim") {
		t.Fatal("cancel of queued job reported not found")
	}
	close(block)
	if id := <-ran; id != "after" {
		t.Fatalf("dispatch after cancel = %q, want after (victim must never run)", id)
	}
	if q.Cancel("definitely-absent") {
		t.Fatal("cancel of unknown id reported found")
	}
}

func TestCancelRunningCancelsContext(t *testing.T) {
	q := queue.New(queue.Options{Workers: 1, Depth: 4})
	started := make(chan struct{})
	stopped := make(chan error, 1)
	err := q.Submit(queue.Job{ID: "rr", Run: func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		stopped <- ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.Start(ctx)
	<-started
	if !q.Cancel("rr") {
		t.Fatal("cancel of running job reported not found")
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job context ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("running job never saw cancellation")
	}
}

func TestShutdownDrainsWorkers(t *testing.T) {
	q := queue.New(queue.Options{Workers: 2, Depth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	q.Start(ctx)
	cancel()
	done := make(chan struct{})
	go func() { q.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not exit on context cancellation")
	}
	if err := q.Submit(queue.Job{ID: "zz", Run: func(context.Context) {}}); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}
