// Cross-process span merging. Each process owns its private bounded
// event log; WriteMergedChrome stitches the logs into one multi-process
// Chrome trace. Spans of different processes join on the attributes both
// sides record: in a distributed sweep, the coordinator's dist.lease span
// and the worker's dist.worker.lease span carry the same lease id.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SetDefaultParent makes subsequent Root spans children of s (each
// still on its own fresh track); nil restores top-level roots. A
// worker sets the lease span as default parent around a shard run so
// the eval pipeline's own root spans nest under the lease without the
// pipeline knowing anything about distribution.
func (t *Tracer) SetDefaultParent(s *Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.defParent = s
}

// ReadJSONL parses a WriteJSONL stream back into events, preserving
// attribute order and numeric formatting (attrs round-trip through
// json.Number, so re-exporting parsed events is lossless for integer
// values). Blank lines are skipped; a malformed line fails the whole
// read with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		e := Event{
			ID: je.ID, Parent: je.Parent, Track: je.Track, Name: je.Name,
			Instant: je.Instant, StartUS: je.StartUS, DurUS: je.DurUS,
		}
		if je.StartCycle != nil || je.EndCycle != nil {
			e.HasCycles = true
			if je.StartCycle != nil {
				e.StartCycle = *je.StartCycle
			}
			if je.EndCycle != nil {
				e.EndCycle = *je.EndCycle
			}
		}
		attrs, err := parseAttrs(je.Attrs)
		if err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		e.Attrs = attrs
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading jsonl: %w", err)
	}
	return events, nil
}

// parseAttrs decodes an exported attrs object back into ordered Attrs.
// Cycle-window keys written by argsJSON are folded back out by the
// caller's event fields, so they are kept as plain attrs here only if
// the producer put them there explicitly — ReadJSONL events re-export
// byte-identically either way because argsJSON re-renders in order.
func parseAttrs(raw json.RawMessage) ([]Attr, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("attrs is not an object")
	}
	var attrs []Attr
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, ok := kt.(string)
		if !ok {
			return nil, fmt.Errorf("attrs key is not a string")
		}
		vt, err := dec.Token()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attr{Key: key, Value: vt})
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	return attrs, nil
}

// Process is one contributor to a merged multi-process export: a
// display name and its (already exported or collected) events.
type Process struct {
	Name   string
	Events []Event
}

// WriteMergedChrome stitches several processes' span logs into one
// Chrome trace-event JSON document: process i renders under pid i+1
// with a process_name metadata record, so Perfetto shows the whole
// distributed sweep — coordinator and every worker — on one timeline.
// Events are sorted per process exactly as Tracer.Events sorts; their
// timestamps are taken as given, so callers put every process on one
// clock first.
func WriteMergedChrome(w io.Writer, procs []Process) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	var lines []string
	for i, p := range procs {
		pid := i + 1
		name, err := json.Marshal(p.Name)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf(
			`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, name))
		events := append([]Event(nil), p.Events...)
		sortEvents(events)
		for _, e := range events {
			line, err := chromeLine(e, pid)
			if err != nil {
				return err
			}
			lines = append(lines, line)
		}
	}
	for i, line := range lines {
		if i < len(lines)-1 {
			line += ","
		}
		if _, err := bw.WriteString(line + "\n"); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
