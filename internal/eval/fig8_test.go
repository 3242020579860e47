package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// fig8GoldenBenchmarks is a cheap Fig 8 set spanning a streaming kernel
// (nn), a multi-phase one (heartwall), a small-footprint one (lib) and a
// wavefront (nw).
var fig8GoldenBenchmarks = []string{"nn", "heartwall", "lib", "nw"}

// TestFig8Golden pins every Fig 8 point's checkpoint payload, with the
// wall-clock orig_ns and prox_ns fields removed, for four benchmarks at
// seed 1. Each line names the point's benchmark and factor and carries
// its job key, so the file also pins the keys checkpoints resume by.
// Refresh intentionally with
// `go test ./internal/eval -run TestFig8Golden -update`.
func TestFig8Golden(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = fig8GoldenBenchmarks
	points := make(map[string]string)
	opts.ResultSink = func(key string, v json.RawMessage, _ time.Duration) error {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(v, &fields); err != nil {
			return err
		}
		delete(fields, "orig_ns")
		delete(fields, "prox_ns")
		b, err := json.Marshal(fields)
		if err != nil {
			return err
		}
		points[key] = string(b)
		return nil
	}
	if _, err := opts.Fig8(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, factor := range []float64{1, 2, 4, 8, 16} {
		f := strconv.FormatFloat(factor, 'g', -1, 64)
		for _, name := range opts.Benchmarks {
			key := opts.jobKey("fig8", name, "factor="+f)
			p, ok := points[key]
			if !ok {
				t.Fatalf("no payload for %s factor=%s (key %s)", name, f, key)
			}
			fmt.Fprintf(&buf, "%s factor=%s %s %s\n", name, f, key, p)
		}
	}
	if want := 5 * len(opts.Benchmarks); len(points) != want {
		t.Fatalf("fig8 delivered %d payloads, want %d", len(points), want)
	}

	path := filepath.Join("testdata", "fig8_golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fig8 payloads drifted from golden file %s\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)",
			path, buf.Bytes(), want)
	}
}

// TestFig8PreparesOncePerBenchmark pins the profile-once, clone-many
// flow: a Fig 8 call prepares each benchmark once for all five factors,
// coalescing its trace once, and instrumenting it changes no result.
func TestFig8PreparesOncePerBenchmark(t *testing.T) {
	plain := quickOpts()
	plain.Benchmarks = []string{"nn", "lib"}
	plain.NoTimings = true
	want, err := plain.Fig8()
	if err != nil {
		t.Fatal(err)
	}

	observed := quickOpts()
	observed.Benchmarks = plain.Benchmarks
	observed.NoTimings = true
	observed.Obs = obs.New()
	observed.Trace = obstrace.New()
	got, err := observed.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	prepares := 0
	for _, e := range observed.Trace.Events() {
		if e.Name == "eval.prepare" {
			prepares++
		}
	}
	if prepares != 2 {
		t.Errorf("recorded %d eval.prepare spans, want 2", prepares)
	}
	if n := observed.Obs.Histogram("phase.profile.coalesce.ns").Count(); n != 2 {
		t.Errorf("profile.coalesce ran %d times, want 2", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("instrumented fig8 differs:\n%+v\nwant:\n%+v", got, want)
	}
}
