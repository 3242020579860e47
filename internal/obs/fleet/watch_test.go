package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
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

// writeAddrFile replaces path atomically, as a coordinator publishes
// its address.
func writeAddrFile(t *testing.T, path, addr string) {
	t.Helper()
	if err := os.WriteFile(path+".tmp", []byte(addr+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
}

// TestWatchFollowsAddrFile: a watch given an addr file re-reads it
// before every poll, so when the coordinator is restarted on a new port
// and the file rewritten, the view renders the new incarnation.
func TestWatchFollowsAddrFile(t *testing.T) {
	coordinator := func(epoch int) *httptest.Server {
		return httptest.NewServer(New(Options{Status: func() interface{} {
			return map[string]interface{}{"experiment": "fig6a", "epoch": epoch, "total_jobs": 30}
		}}).Handler())
	}
	a, b := coordinator(1), coordinator(2)
	defer b.Close()
	addrFile := filepath.Join(t.TempDir(), "coord.addr")
	writeAddrFile(t, addrFile, a.URL)

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- Watch(ctx, &out, addrFile, 10*time.Millisecond) }()
	defer func() {
		cancel()
		<-done
	}()

	waitFor := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(out.String(), want) {
			if time.Now().After(deadline) {
				t.Fatalf("watch never rendered %q:\n%s", want, out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("sweep fig6a  epoch 1")
	writeAddrFile(t, addrFile, strings.TrimPrefix(b.URL, "http://"))
	a.Close()
	waitFor("sweep fig6a  epoch 2")
}

// TestWatchResolve: a watch target is a coordinator URL, a bare
// host:port, or an addr file holding either.
func TestWatchResolve(t *testing.T) {
	dir := t.TempDir()
	file := func(name, addr string) string {
		path := filepath.Join(dir, name)
		writeAddrFile(t, path, addr)
		return path
	}
	for _, tc := range []struct{ name, target, want string }{
		{"url", "http://10.0.0.1:9500/", "http://10.0.0.1:9500"},
		{"host:port", "10.0.0.1:9500", "http://10.0.0.1:9500"},
		{"addr file with url", file("url.addr", "http://127.0.0.1:9501"), "http://127.0.0.1:9501"},
		{"addr file with host:port", file("hp.addr", "127.0.0.1:9502"), "http://127.0.0.1:9502"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolve(tc.target); got != tc.want {
				t.Errorf("resolve(%q) = %q, want %q", tc.target, got, tc.want)
			}
		})
	}
}
