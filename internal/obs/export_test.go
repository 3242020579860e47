package obs

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// goldenRegistry builds a registry with one of everything, with fixed
// contents so the exports are byte-stable.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("memsim.requests").Add(1234)
	r.Counter("l2.bank0.accesses").Add(99)
	g := r.Gauge("runner.workers")
	g.Set(8)
	g.Set(4)
	h := r.Histogram("dram.latency_cycles")
	for _, v := range []uint64{0, 1, 5, 5, 120, 4096} {
		h.Observe(v)
	}
	s := r.Sampler("memsim.l1_miss_rate", 16)
	for c := uint64(0); c < 10; c++ {
		s.Sample(c*10, float64(c)/10)
	}
	s2 := r.Sampler("dram.queue_depth", 16)
	s2.Sample(0, 1)
	s2.Sample(7, 3)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (refresh with `go test ./internal/obs -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n got:\n%s\nwant:\n%s\nRefresh intentionally with `go test ./internal/obs -update`.", name, got, want)
	}
}

// TestGoldenSnapshotJSON pins the -obs-snapshot export format: indented
// JSON with sorted keys, omitting empty sections.
func TestGoldenSnapshotJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", buf.Bytes())
}

// TestGoldenSeriesJSONL pins the -obs-out export format: one point per
// line, series in name order, points in cycle order.
func TestGoldenSeriesJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteSeriesJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series.jsonl", buf.Bytes())
}

// TestGoldenEmptyRegistry pins the degenerate exports: an enabled but
// empty registry must emit an empty JSON object and no JSONL lines.
func TestGoldenEmptyRegistry(t *testing.T) {
	r := New()
	var snap, series bytes.Buffer
	if err := r.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.String(); got != "{}\n" {
		t.Errorf("empty snapshot = %q, want {}\\n", got)
	}
	if err := r.WriteSeriesJSONL(&series); err != nil {
		t.Fatal(err)
	}
	if series.Len() != 0 {
		t.Errorf("empty registry emitted JSONL: %q", series.String())
	}
}

// TestWriteFile covers both destinations of an export — a file and, for
// "-", stdout — and that every failure names the path.
func TestWriteFile(t *testing.T) {
	hello := func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, hello); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "hello\n" {
		t.Fatalf("file holds %q, %v; want %q", got, err, "hello\n")
	}

	stdout := filepath.Join(dir, "stdout.txt")
	f, err := os.Create(stdout)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = WriteFile("-", hello)
	os.Stdout = saved
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(stdout); err != nil || string(got) != "hello\n" {
		t.Fatalf("stdout got %q, %v; want %q", got, err, "hello\n")
	}
	if _, err := os.Stat(filepath.Join(".", "-")); err == nil {
		t.Fatal(`"-" was written as a file`)
	}

	failing := func(io.Writer) error { return errors.New("export failed") }
	for _, tc := range []struct {
		path   string
		export func(io.Writer) error
	}{
		{filepath.Join(dir, "missing", "out.txt"), hello},
		{filepath.Join(dir, "failed.txt"), failing},
	} {
		err := WriteFile(tc.path, tc.export)
		if err == nil || !strings.Contains(err.Error(), tc.path) {
			t.Errorf("WriteFile(%s) = %v, want an error naming the path", tc.path, err)
		}
	}
}
