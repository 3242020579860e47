package dist

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets a test read what Watch's goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitOutput waits until out holds want.
func waitOutput(t *testing.T, out *syncBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("watch never rendered %q:\n%s", want, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchFollowsAddrFile: a watch given an addr file re-reads it
// before every poll, so when the coordinator is restarted over its
// ledger on a new port and the file rewritten, the view renders the
// new incarnation.
func TestWatchFollowsAddrFile(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	c1, _, _ := syntheticCoordinator(t, 30, CoordinatorOptions{Parts: 4, Ledger: ledger})
	defer c1.Close()
	a := httptest.NewServer(c1.Handler())
	addrFile := filepath.Join(dir, "coord.addr")
	if err := WriteAddrFile(nil, addrFile, a.URL); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- Watch(ctx, &out, addrFile, 10*time.Millisecond) }()
	defer func() {
		cancel()
		<-done
	}()

	waitOutput(t, &out, "sweep synthetic  epoch 1")
	c2, _, _ := syntheticCoordinator(t, 30, CoordinatorOptions{Parts: 4, Ledger: ledger})
	defer c2.Close()
	b := httptest.NewServer(c2.Handler())
	defer b.Close()
	if err := WriteAddrFile(nil, addrFile, strings.TrimPrefix(b.URL, "http://")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	waitOutput(t, &out, "sweep synthetic  epoch 2")
}

// TestWatchResolve: a watch target is a coordinator URL, a bare
// host:port, or an addr file holding either. Watch passes its one
// target to the worker's resolver as both the addr file and the URL.
func TestWatchResolve(t *testing.T) {
	dir := t.TempDir()
	file := func(name, addr string) string {
		path := filepath.Join(dir, name)
		if err := WriteAddrFile(nil, path, addr); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct{ name, target, want string }{
		{"url", "http://10.0.0.1:9500/", "http://10.0.0.1:9500"},
		{"host:port", "10.0.0.1:9500", "http://10.0.0.1:9500"},
		{"addr file with url", file("url.addr", "http://127.0.0.1:9501"), "http://127.0.0.1:9501"},
		{"addr file with host:port", file("hp.addr", "127.0.0.1:9502"), "http://127.0.0.1:9502"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolveEndpoint(tc.target, tc.target); got != tc.want {
				t.Errorf("resolveEndpoint(%q, %q) = %q, want %q", tc.target, tc.target, got, tc.want)
			}
		})
	}
}

// TestRenderStatusFrame: a frame shows the sweep line and the partition
// table while a sweep is coordinated, otherwise says none is, and then
// lists every roster worker with its state and leases granted.
func TestRenderStatusFrame(t *testing.T) {
	workers := []WorkerStatus{
		{Name: "w0", State: WorkerLive, Granted: 3},
		{Name: "w1", State: WorkerStale, Granted: 1},
	}
	var buf bytes.Buffer
	RenderStatus(&buf, Status{
		Experiment: "fig6a", Epoch: 2, TotalJobs: 30, DoneJobs: 12,
		Parts: 4, DoneParts: 1, LiveLeases: 2,
		Partitions: []PartStatus{{Part: 0, Keys: 8, Remaining: 3, Lease: "lease-2-0004", Worker: "w0", LeaseAgeNS: 1500000000}},
		Workers:    workers,
	})
	out := buf.String()
	for _, want := range []string{
		"sweep fig6a  epoch 2  running  jobs 12/30", "PART", "lease-2-0004", "1.5s",
		"WORKER         STATE  LEASES", "w0             live   3", "w1             stale  1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	RenderStatus(&buf, Status{Workers: workers})
	out = buf.String()
	if !strings.Contains(out, "no sweep being coordinated") || strings.Contains(out, "PART") || !strings.Contains(out, "w1             stale  1") {
		t.Errorf("frame between sweeps:\n%s", out)
	}

	buf.Reset()
	RenderStatus(&buf, Status{})
	if out := buf.String(); !strings.Contains(out, "(no workers yet)") {
		t.Errorf("frame of an empty roster:\n%s", out)
	}
}
