package core

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

	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// appGoldenBenchmarks are the benchmarks whose launch sequences hold more
// than one launch: kmeans re-launches one kernel, bp and srad run two.
var appGoldenBenchmarks = []string{"bp", "kmeans", "srad"}

// appDigest returns one golden line for a benchmark's application
// pipeline at scale 1, seed 1 and factor 4: SHA-256 digests of the
// application profile as WriteJSON writes it, of the clone's launches,
// of each original launch's coalesced warps, and of the Metrics of both
// simulations on a four-core system.
func appDigest(name string) (string, error) {
	w, err := PrepareApp(name, 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		return "", err
	}
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	sumJSON := func(v any) (string, error) {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		return sum(b), nil
	}
	var prof bytes.Buffer
	if err := w.Profile.WriteJSON(&prof); err != nil {
		return "", err
	}
	fields := []string{name, "profile=" + sum(prof.Bytes())}
	clone, err := sumJSON(w.Proxy.WarpLaunches())
	if err != nil {
		return "", err
	}
	fields = append(fields, "clone="+clone)
	for i, l := range w.Launches {
		s, err := sumJSON(l)
		if err != nil {
			return "", err
		}
		fields = append(fields, fmt.Sprintf("orig%d=%s", i, s))
	}
	orig, err := w.SimulateOriginal(smallSim())
	if err != nil {
		return "", err
	}
	prox, err := w.SimulateProxy(smallSim())
	if err != nil {
		return "", err
	}
	for _, m := range []struct {
		key string
		v   any
	}{{"orig_metrics", orig}, {"proxy_metrics", prox}} {
		s, err := sumJSON(m.v)
		if err != nil {
			return "", err
		}
		fields = append(fields, m.key+"="+s)
	}
	return strings.Join(fields, " "), nil
}

// TestAppGolden pins the application pipeline's bytes for the
// multi-launch benchmarks: profile, clone, coalesced originals and both
// simulations. Refresh intentionally with
// `go test ./internal/core -run TestAppGolden -update`.
func TestAppGolden(t *testing.T) {
	path := filepath.Join("testdata", "app_golden.txt")
	if *update {
		var b strings.Builder
		for _, name := range appGoldenBenchmarks {
			line, err := appDigest(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
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
	if len(want) != len(appGoldenBenchmarks) {
		t.Fatalf("%s holds %d lines, want %d", path, len(want), len(appGoldenBenchmarks))
	}
	for i, name := range appGoldenBenchmarks {
		t.Run(name, func(t *testing.T) {
			got, err := appDigest(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("app pipeline drifted:\n got: %s\nwant: %s\n(run with -update if the change is intentional)", got, want[i])
			}
		})
	}
}
