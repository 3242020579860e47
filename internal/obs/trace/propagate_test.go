package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic Now stepping 1ms per call.
func fixedClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// TestDefaultParentNesting: while a default parent is installed, Root
// spans nest under it, each on a fresh track; clearing it (or ending
// the parent) restores top-level roots. A nil tracer ignores the call.
func TestDefaultParentNesting(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.SetDefaultParent(nil) // must not panic

	wrk := NewWithOptions(Options{Now: fixedClock()})
	ws := wrk.Root("dist.worker.lease", String("lease", "lease-1-0001"))
	wrk.SetDefaultParent(ws)
	job := wrk.Root("eval.fig6a")
	job.End()
	wrk.SetDefaultParent(nil)
	after := wrk.Root("other")
	after.End()
	wrk.SetDefaultParent(ws)
	ws.End()
	late := wrk.Root("late")
	late.End()

	byName := map[string]Event{}
	for _, e := range wrk.Events() {
		byName[e.Name] = e
	}
	we := byName["dist.worker.lease"]
	if we.Parent != 0 {
		t.Fatalf("lease span parent = %d, want a root", we.Parent)
	}
	if je := byName["eval.fig6a"]; je.Parent != we.ID || je.Track == we.Track {
		t.Fatalf("eval root = parent %d track %d, want parent %d on a track other than %d", je.Parent, je.Track, we.ID, we.Track)
	}
	if oe := byName["other"]; oe.Parent != 0 {
		t.Fatalf("post-clear root parent = %d, want 0", oe.Parent)
	}
	if le := byName["late"]; le.Parent != 0 {
		t.Fatalf("root under an ended default parent has parent %d, want 0", le.Parent)
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	tr := NewWithOptions(Options{Now: fixedClock()})
	root := tr.Root("sweep", String("experiment", "fig6a"), Int("jobs", 30))
	child := root.ChildTrack("lease", Float("f", 1.5))
	child.SetCycles(10, 20)
	child.End()
	root.End()
	tr.Instant("marker", String("k", "v"))

	var out bytes.Buffer
	if err := tr.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(events))
	}

	// Re-exporting the parsed events must reproduce the original stream:
	// attribute order, parents and cycle windows survive the round trip.
	reexport := func(events []Event) string {
		var buf bytes.Buffer
		for _, e := range events {
			je := jsonlEvent{
				ID: e.ID, Parent: e.Parent, Track: e.Track, Name: e.Name,
				Instant: e.Instant, StartUS: e.StartUS, DurUS: e.DurUS,
			}
			if e.HasCycles {
				sc, ec := e.StartCycle, e.EndCycle
				je.StartCycle, je.EndCycle = &sc, &ec
			}
			if len(e.Attrs) > 0 {
				args, err := argsJSON(Event{Attrs: e.Attrs})
				if err != nil {
					t.Fatal(err)
				}
				je.Attrs = args
			}
			line, err := json.Marshal(je)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		return buf.String()
	}
	if got := reexport(events); got != out.String() {
		t.Fatalf("re-export differs:\n--- got ---\n%s--- want ---\n%s", got, out.String())
	}
}

func TestWriteMergedChrome(t *testing.T) {
	coord := NewWithOptions(Options{Now: fixedClock()})
	sweep := coord.Root("dist.sweep")
	lease := sweep.ChildTrack("dist.lease", String("lease", "lease-1-0001"))

	wrk := NewWithOptions(Options{Now: fixedClock()})
	ws := wrk.Root("dist.worker.lease", String("lease", "lease-1-0001"), String("worker", "w0"))
	ws.End()
	lease.End()
	sweep.End()

	var buf bytes.Buffer
	err := WriteMergedChrome(&buf, []Process{
		{Name: "coordinator", Events: coord.Events()},
		{Name: "worker w0", Events: wrk.Events()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("merged export is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			PH   string                 `json:"ph"`
			PID  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var metas, workers int
	for _, e := range doc.TraceEvents {
		if e.PH == "M" && e.Name == "process_name" {
			metas++
		}
		if e.Name == "dist.worker.lease" {
			workers++
			if e.PID != 2 {
				t.Errorf("worker event pid = %d, want 2", e.PID)
			}
			if e.Args["lease"] != "lease-1-0001" {
				t.Errorf("worker event lease = %v, want the coordinator's lease id", e.Args["lease"])
			}
		}
	}
	if metas != 2 || workers != 1 {
		t.Fatalf("merged export has %d process metas, %d worker spans; want 2, 1", metas, workers)
	}
}

// TestDropCounterConcurrent hammers a tiny-capped tracer from many
// goroutines: the retained count must saturate exactly at the cap and
// every overflow must land in Dropped — no lost updates, no overshoot.
func TestDropCounterConcurrent(t *testing.T) {
	const (
		capEvents  = 64
		writers    = 8
		perWriter  = 100
		totalSpans = writers * perWriter
	)
	tr := NewWithOptions(Options{Cap: capEvents})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := tr.Root("span", Int("writer", int64(w)), Int("i", int64(i)))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != capEvents {
		t.Errorf("Len = %d, want cap %d", got, capEvents)
	}
	if got := tr.Dropped(); got != totalSpans-capEvents {
		t.Errorf("Dropped = %d, want %d", got, totalSpans-capEvents)
	}
	// The export must still be well-formed after saturation.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("saturated chrome export is not valid JSON")
	}
}
