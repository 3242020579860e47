package eval

import (
	"fmt"
	"strings"
	"testing"
)

// TestTolerateSkipsFailingBenchmark: with Tolerate set, a benchmark
// whose points all fail is dropped with a log line and the figure is
// built from the survivors; without it the sweep fails.
func TestTolerateSkipsFailingBenchmark(t *testing.T) {
	strict := quickOpts()
	strict.Benchmarks = []string{"nn", "no-such-benchmark"}
	_, err := strict.Fig6a()
	if err == nil {
		t.Fatal("sweep with an unknown benchmark reported success")
	}
	// It fails loudly, naming the experiment and the failure count —
	// never a silently truncated figure.
	if !strings.Contains(err.Error(), "fig6a") || !strings.Contains(err.Error(), "jobs failed") {
		t.Fatalf("error = %v, want experiment id and failure count", err)
	}

	var logs []string
	tol := quickOpts()
	tol.Benchmarks = []string{"nn", "no-such-benchmark"}
	tol.Tolerate = true
	tol.Progress = func(format string, args ...interface{}) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	fig, err := tol.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 1 || fig.Rows[0].Benchmark != "nn" {
		t.Fatalf("rows = %+v, want nn only", fig.Rows)
	}
	var skipped bool
	for _, l := range logs {
		if strings.Contains(l, "no-such-benchmark") && strings.Contains(l, "skipped") {
			skipped = true
		}
	}
	if !skipped {
		t.Errorf("no skip report logged; logs:\n%s", strings.Join(logs, "\n"))
	}

	// When every benchmark fails, Tolerate still cannot fabricate a
	// figure out of nothing.
	empty := quickOpts()
	empty.Benchmarks = []string{"no-such-benchmark"}
	empty.Tolerate = true
	if _, err := empty.Fig6a(); err == nil || !strings.Contains(err.Error(), "every benchmark failed") {
		t.Fatalf("all-failed tolerate error = %v", err)
	}
}
