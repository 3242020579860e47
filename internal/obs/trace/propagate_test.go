package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestEventJSONRoundTrip: decoding an event's JSON form and encoding it
// again reproduces the WriteJSONL stream byte for byte, so attribute
// order, parents and cycle windows survive a push.
func TestEventJSONRoundTrip(t *testing.T) {
	tr := NewWithOptions(Options{Now: fixedClock()})
	root := tr.Root("sweep", String("experiment", "fig6a"), Int("jobs", 30))
	child := root.ChildTrack("lease", Float("f", 1.5))
	child.SetCycles(10, 20)
	child.End()
	root.End()
	tr.Instant("marker", String("k", "v"))

	var want bytes.Buffer
	if err := tr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if events[1].Parent != events[0].ID || !events[1].HasCycles || events[1].StartCycle != 10 || events[1].EndCycle != 20 {
		t.Fatalf("child event = %+v, want parent %d and cycles 10..20", events[1], events[0].ID)
	}
	if a := events[0].Attrs; len(a) != 2 || a[0].Key != "experiment" || a[1].Key != "jobs" {
		t.Fatalf("root attrs = %+v, want experiment then jobs", a)
	}
	var got bytes.Buffer
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(line, '\n'))
	}
	if got.String() != want.String() {
		t.Fatalf("re-export differs:\n--- got ---\n%s--- want ---\n%s", got.String(), want.String())
	}
}

// TestEventJSONRejectsNestedAttrs: an attribute value is a string,
// number, bool or null; an object or array fails the decode naming its
// key instead of hoisting inner keys or misreading the delimiter.
func TestEventJSONRejectsNestedAttrs(t *testing.T) {
	for _, tc := range []struct{ attrs, key string }{
		{`{"a":{"b":1},"c":2}`, "a"},
		{`{"a":[1,2]}`, "a"},
		{`{"k":"v","x":[]}`, "x"},
		{`{"k":"v","x":{}}`, "x"},
	} {
		var e Event
		err := json.Unmarshal([]byte(`{"id":1,"track":1,"name":"s","start_us":0,"dur_us":1,"attrs":`+tc.attrs+`}`), &e)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("attr %q", tc.key)) {
			t.Errorf("attrs %s: err = %v, want one naming attr %q", tc.attrs, err, tc.key)
		}
	}
	var e Event
	if err := json.Unmarshal([]byte(`{"id":1,"name":"s","attrs":{"s":"v","n":-1.5e3,"b":true,"z":null}}`), &e); err != nil {
		t.Fatalf("scalar attrs rejected: %v", err)
	}
}

// FuzzEventJSON: any input that decodes into an Event re-encodes to
// bytes that decode to an equal Event.
func FuzzEventJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"id":7,"parent":3,"track":2,"name":"x","start_us":1.5,"dur_us":-0,"start_cycle":4,"attrs":{"a":"\u00e9","a":1e400,"n":null}}`))
	f.Add([]byte(`{"id":1,"name":"s","attrs":{"a":{"b":1},"c":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		if json.Unmarshal(data, &e) != nil {
			return
		}
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", e, err)
		}
		var again Event
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("decode re-encoded %s: %v", out, err)
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip changed the event:\n%+v\n%+v", e, again)
		}
	})
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

// TestWriteMergedChromeGolden freezes the merged Chrome document: two
// named processes, each with a process_name record, attributes, a
// cycle window and an instant. GMAP_UPDATE_GOLDEN=1 re-records
// testdata/merged_chrome.json.
func TestWriteMergedChromeGolden(t *testing.T) {
	coord := NewWithOptions(Options{Now: fakeClock(100 * time.Microsecond)})
	sweep := coord.Root("dist.sweep", String("experiment", "fig6a"), Int("parts", 2))
	lease := sweep.ChildTrack("dist.lease", String("lease", "lease-1-0001"), Int("part", 0))
	coord.Instant("dist.epoch", Int("epoch", 1))
	lease.End()
	sweep.End()

	wrk := NewWithOptions(Options{Now: fakeClock(40 * time.Microsecond)})
	ws := wrk.Root("dist.worker.lease", String("lease", "lease-1-0001"), String("worker", "w0"))
	sim := ws.Child("memsim.run", Float("ipc", 0.75))
	sim.SetCycles(128, 4096)
	sim.End()
	ws.End()

	var buf bytes.Buffer
	if err := WriteMergedChrome(&buf, []Process{
		{Name: "coordinator", Events: coord.Events()},
		{Name: "w0", Events: wrk.Events()},
	}); err != nil {
		t.Fatal(err)
	}
	golden(t, "merged_chrome.json", buf.Bytes())
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
