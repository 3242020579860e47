package runner

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These cases pin the Salvage edge behavior the distributed merge
// (internal/dist) relies on: a ledger assembled out of order by many
// writers must load completely, a duplicate entry with identical
// payload must merge silently, and a duplicate with a divergent payload
// must fail loudly, naming the key.

func appendEntries(t *testing.T, path string, entries []Entry) {
	t.Helper()
	app, err := OpenCheckpointAppender(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := app.Append(e.Key, e.Value, 0); err != nil {
			t.Fatalf("append %q: %v", e.Key, err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
}

// Entry mirrors a checkpoint line for test construction.
type Entry struct {
	Key   string
	Value json.RawMessage
}

func TestSalvageOutOfOrderAppend(t *testing.T) {
	// A merged ledger interleaves parts in completion order, not key
	// order. Salvage must recover every entry regardless.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	var entries []Entry
	for i := 0; i < 40; i++ {
		entries = append(entries, Entry{
			Key:   JobKey("out-of-order", string(rune('a'+i%26)), string(rune('0'+i/26))),
			Value: json.RawMessage(`{"orig":` + string(rune('0'+i%10)) + `}`),
		})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	appendEntries(t, path, entries)

	vals, sv, err := SalvageStrict(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Entries != len(entries) || sv.Lines != len(entries) {
		t.Fatalf("salvage = %+v, want %d entries and lines", sv, len(entries))
	}
	for _, e := range entries {
		got, ok := vals[e.Key]
		if !ok {
			t.Fatalf("key %q lost", e.Key)
		}
		if string(got) != string(e.Value) {
			t.Errorf("key %q: value %s, want %s", e.Key, got, e.Value)
		}
	}
}

func TestSalvageIdenticalDuplicateAccepted(t *testing.T) {
	// The same job executed by two leases produces byte-identical
	// payloads; the merge counts the duplicate line and keeps one entry.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	dup := Entry{Key: JobKey("dup"), Value: json.RawMessage(`{"orig":1,"prox":2}`)}
	appendEntries(t, path, []Entry{
		{Key: JobKey("solo"), Value: json.RawMessage(`{"orig":9}`)},
		dup, dup, dup,
	})
	vals, sv, err := SalvageStrict(nil, path)
	if err != nil {
		t.Fatalf("identical duplicates must merge, got %v", err)
	}
	if sv.Entries != 2 || sv.Lines != 4 {
		t.Fatalf("salvage = %+v, want 2 entries over 4 lines", sv)
	}
	if sv.DivergentLines != 0 {
		t.Fatalf("identical duplicates flagged divergent: %+v", sv)
	}
	if string(vals[dup.Key]) != string(dup.Value) {
		t.Errorf("duplicate key holds %s", vals[dup.Key])
	}
}

func TestSalvageDivergentDuplicateErrors(t *testing.T) {
	// A re-recorded key with different bytes means two job universes
	// were merged; strict salvage must refuse, naming the key.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	key := JobKey("divergent", "victim")
	appendEntries(t, path, []Entry{
		{Key: JobKey("innocent"), Value: json.RawMessage(`{"orig":1}`)},
		{Key: key, Value: json.RawMessage(`{"orig":1,"prox":2}`)},
		{Key: key, Value: json.RawMessage(`{"orig":1,"prox":3}`)},
	})
	_, sv, err := SalvageStrict(nil, path)
	if err == nil {
		t.Fatal("divergent payloads merged silently")
	}
	if !strings.Contains(err.Error(), key) {
		t.Errorf("error does not name the divergent key %q: %v", key, err)
	}
	if sv.DivergentLines != 1 || sv.FirstDivergentKey != key {
		t.Errorf("salvage = %+v, want 1 divergent line on %q", sv, key)
	}

	// The lenient path keeps its longstanding later-entry-wins contract.
	vals, sv2, err := SalvageCheckpoint(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[key]) != `{"orig":1,"prox":3}` {
		t.Errorf("lenient salvage kept %s, want the later value", vals[key])
	}
	if sv2.DivergentLines != 1 {
		t.Errorf("lenient salvage lost the divergence count: %+v", sv2)
	}
}

func TestSalvageStrictTornTailStillTruncates(t *testing.T) {
	// Strictness is about payload identity, not torn tails: a killed
	// writer's partial line is cut exactly as in the lenient path.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	appendEntries(t, path, []Entry{{Key: JobKey("whole"), Value: json.RawMessage(`{"orig":4}`)}})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","val`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	vals, sv, err := SalvageStrict(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || !sv.Truncated || sv.TornBytes == 0 {
		t.Fatalf("salvage = %+v over %d vals, want a truncated torn tail", sv, len(vals))
	}
}

func TestCheckpointAppenderRejectsBadInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	app, err := OpenCheckpointAppender(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Append("", json.RawMessage(`{}`), 0); err == nil {
		t.Error("empty key accepted")
	}
	if err := app.Append("k", json.RawMessage(`{"broken":`), 0); err == nil {
		t.Error("invalid JSON payload accepted")
	}
}

func TestCheckpointAppenderCompactsValues(t *testing.T) {
	// The appender canonicalizes formatting so byte-level payload
	// comparison across writers is insensitive to wire whitespace.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	app, err := OpenCheckpointAppender(nil, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Append("k", json.RawMessage("{ \"orig\": 1 ,\n \"prox\": 2 }"), 0); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	vals, _, err := SalvageStrict(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != `{"orig":1,"prox":2}` {
		t.Errorf("stored value %s not compacted", vals["k"])
	}
}

func TestSalvageFirstKeyIsFirstValidLine(t *testing.T) {
	// FirstKey samples the checkpoint's job universe for resume-mismatch
	// errors: it is the first key that parses, not a corrupt line before
	// it, and a later re-recording of another key does not move it.
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, []byte("not json\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	first, second := JobKey("first"), JobKey("second")
	appendEntries(t, path, []Entry{
		{Key: first, Value: json.RawMessage(`{"orig":1}`)},
		{Key: second, Value: json.RawMessage(`{"orig":2}`)},
		{Key: second, Value: json.RawMessage(`{"orig":2}`)},
		{Key: first, Value: json.RawMessage(`{"orig":1}`)},
	})
	for name, salvage := range map[string]func() (Salvage, error){
		"lenient": func() (Salvage, error) { _, sv, err := SalvageCheckpoint(nil, path); return sv, err },
		"strict":  func() (Salvage, error) { _, sv, err := SalvageStrict(nil, path); return sv, err },
	} {
		sv, err := salvage()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sv.FirstKey != first || sv.BadLines != 1 || sv.Lines != 4 || sv.Entries != 2 {
			t.Errorf("%s salvage = %+v, want FirstKey %q over 1 bad and 4 good lines", name, sv, first)
		}
	}
}
