package gmap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// largeKernelBenchmarks are the kernels bench's large-kernel workload
// runs at scale 8; their run tables are the largest profiles in the tree.
var largeKernelBenchmarks = []string{"bfs", "hotspot", "blk", "mum", "srad", "kmeans"}

// profileBytesDigest returns one golden line for a benchmark at a scale:
// SHA-256 digests of the profile as WriteProfile writes it, of its
// json.Marshal form (the form the result store hashes into content
// addresses), and of the seed-1, factor-4 clone that the profile read
// back from WriteProfile's bytes generates, as WriteProxy writes it.
func profileBytesDigest(name string, scale int) (string, error) {
	tr, err := BenchmarkTrace(name, scale)
	if err != nil {
		return "", err
	}
	p, err := ProfileTrace(tr, DefaultProfileConfig())
	if err != nil {
		return "", err
	}
	var file bytes.Buffer
	if err := WriteProfile(&file, p); err != nil {
		return "", err
	}
	compact, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	back, err := ReadProfile(bytes.NewReader(file.Bytes()))
	if err != nil {
		return "", err
	}
	px, err := Generate(back, GenerateOptions{Seed: 1, ScaleFactor: 4})
	if err != nil {
		return "", err
	}
	var clone bytes.Buffer
	if err := WriteProxy(&clone, px); err != nil {
		return "", err
	}
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	return fmt.Sprintf("%s %d write_json=%s marshal=%s proxy=%s",
		name, scale, sum(file.Bytes()), sum(compact), sum(clone.Bytes())), nil
}

// TestProfileBytesGolden pins the bytes the profile stage produces:
// every benchmark at scale 1 and, without -short, the large-kernel
// benchmarks at scale 8. A codec or profiler change that is meant to be
// byte-neutral must leave every line unchanged. Refresh intentionally
// with `go test -run TestProfileBytesGolden -update .`.
func TestProfileBytesGolden(t *testing.T) {
	type point struct {
		name  string
		scale int
	}
	var points []point
	for _, name := range Benchmarks() {
		points = append(points, point{name, 1})
	}
	for _, name := range largeKernelBenchmarks {
		points = append(points, point{name, 8})
	}
	path := filepath.Join("testdata", "profile_golden.txt")
	if *update {
		if testing.Short() {
			t.Fatal("-update records every point; run it without -short")
		}
		var b strings.Builder
		for _, pt := range points {
			line, err := profileBytesDigest(pt.name, pt.scale)
			if err != nil {
				t.Fatalf("%s at scale %d: %v", pt.name, pt.scale, err)
			}
			b.WriteString(line + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(points) {
		t.Fatalf("%s holds %d lines, want %d", path, len(want), len(points))
	}
	for i, pt := range points {
		if pt.scale > 1 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("%s-x%d", pt.name, pt.scale), func(t *testing.T) {
			got, err := profileBytesDigest(pt.name, pt.scale)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("profile bytes drifted:\n got: %s\nwant: %s\n(run with -update if the change is intentional)", got, want[i])
			}
		})
	}
}

// traceBytesDigest returns one golden line for a benchmark at a scale:
// the thread and access counts of its emulated per-thread trace and the
// SHA-256 of the trace as WriteTrace writes it.
func traceBytesDigest(name string, scale int) (string, error) {
	tr, err := BenchmarkTrace(name, scale)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := WriteTrace(h, tr); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d threads=%d accesses=%d write_trace=%s",
		name, scale, tr.NumThreads(), tr.NumAccesses(), hex.EncodeToString(h.Sum(nil))), nil
}

// TestTraceBytesGolden pins the per-thread traces the emulator produces
// for the file chain: every benchmark at scale 1 and, without -short, the
// large-kernel benchmarks at scale 8. A change to how the emulator builds
// a trace that is meant to be byte-neutral must leave every line
// unchanged. Refresh intentionally with
// `go test -run TestTraceBytesGolden -update .`.
func TestTraceBytesGolden(t *testing.T) {
	type point struct {
		name  string
		scale int
	}
	var points []point
	for _, name := range Benchmarks() {
		points = append(points, point{name, 1})
	}
	for _, name := range largeKernelBenchmarks {
		points = append(points, point{name, 8})
	}
	path := filepath.Join("testdata", "trace_golden.txt")
	if *update {
		if testing.Short() {
			t.Fatal("-update records every point; run it without -short")
		}
		var b strings.Builder
		for _, pt := range points {
			line, err := traceBytesDigest(pt.name, pt.scale)
			if err != nil {
				t.Fatalf("%s at scale %d: %v", pt.name, pt.scale, err)
			}
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(points) {
		t.Fatalf("%s holds %d lines, want %d", path, len(want), len(points))
	}
	for i, pt := range points {
		if pt.scale > 1 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("%s-x%d", pt.name, pt.scale), func(t *testing.T) {
			got, err := traceBytesDigest(pt.name, pt.scale)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("trace bytes drifted:\n got: %s\nwant: %s\n(run with -update if the change is intentional)", got, want[i])
			}
		})
	}
}
