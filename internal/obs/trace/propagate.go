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

// parseAttrs decodes an exported attrs object back into ordered Attrs
// (Event.UnmarshalJSON). A value must be a string, number, bool or
// null: a push is input from another process, and an object or array
// value would otherwise be misread token by token.
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
		if _, ok := vt.(json.Delim); ok {
			return nil, fmt.Errorf("attr %q: value is an object or array", key)
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
// Chrome trace-event JSON document: process i renders under pid i+1, a
// named process after a process_name metadata record, so Perfetto shows
// the whole distributed sweep — coordinator and every worker — on one
// timeline. Events are sorted per process exactly as Tracer.Events
// sorts; their timestamps are taken as given, so callers put every
// process on one clock first. Each line is written as it is rendered.
func WriteMergedChrome(w io.Writer, procs []Process) error {
	bw := bufio.NewWriter(w)
	sep := "\n"
	put := func(line string) error {
		_, err := bw.WriteString(sep + line)
		sep = ",\n"
		return err
	}
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, p := range procs {
		pid := i + 1
		if p.Name != "" {
			name, err := json.Marshal(p.Name)
			if err != nil {
				return err
			}
			if err := put(fmt.Sprintf(
				`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, name)); err != nil {
				return err
			}
		}
		events := append([]Event(nil), p.Events...)
		sortEvents(events)
		for _, e := range events {
			line, err := chromeLine(e, pid)
			if err != nil {
				return err
			}
			if err := put(line); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
