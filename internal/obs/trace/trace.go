// Package trace is the span layer of the observability stack: lightweight
// hierarchical spans that record where a pipeline run's wall-time and
// simulated cycles went. A span covers one unit of pipeline work — a
// figure sweep, one execution-engine job, a profiling phase, a simulation
// epoch — and carries begin/end wall timestamps, optional begin/end
// simulation cycles, and ordered key/value attributes. Ended spans
// accumulate into a bounded in-memory log exportable as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing) or as a
// JSONL structured-event stream.
//
// The nil contract matches obs.Registry: a nil *Tracer hands out nil
// *Span handles, and every method of a nil handle is a no-op, so
// instrumentation points are left in place permanently and cost one
// predictable branch when tracing is off. Tracing is write-only — no
// pipeline component ever reads span state — so attaching a tracer can
// never change a simulation result (enforced by TestObsInvariance).
//
// Handles are safe for concurrent use: all tracer state is guarded by one
// mutex taken at span begin/end, which is far off every simulator hot
// path (spans bound phases, not per-cycle work).
package trace

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ctxKey keys the span carried in a context.
type ctxKey struct{}

// NewContext returns ctx carrying s, so layers below an instrumented
// call boundary (e.g. a job body under the execution engine) can parent
// their spans correctly without explicit plumbing.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil (the no-op span)
// when there is none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// DefaultCap bounds the retained ended-event count when Options.Cap is
// not set. Beyond the cap, further events are counted in Dropped rather
// than retained, so an arbitrarily long sweep cannot grow the log without
// bound.
const DefaultCap = 1 << 16

// Attr is one ordered span attribute. Values are rendered into the
// export's args object; keep them to strings, integers and floats.
type Attr struct {
	Key   string
	Value interface{}
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Event is one ended span (or instant marker) in the tracer's log. Its
// JSON form (MarshalJSON) is one line of the WriteJSONL stream.
type Event struct {
	// ID is the span's unique id; Parent is the enclosing span's id (0
	// for roots). Track groups a root span and all its descendants onto
	// one timeline lane of the Chrome export.
	ID     uint64
	Parent uint64
	Track  int
	// Name is the span name ("runner.job", "memsim.epoch", ...).
	Name string
	// Instant marks a zero-duration point event.
	Instant bool
	// StartUS and DurUS are microseconds of wall time relative to the
	// tracer's creation (Tracer.Origin).
	StartUS float64
	DurUS   float64
	// StartCycle and EndCycle are simulation-cycle timestamps, present
	// only when the span recorded them via SetCycles.
	HasCycles  bool
	StartCycle uint64
	EndCycle   uint64
	// Attrs are the span's attributes in the order they were added.
	Attrs []Attr
}

// Options configures a Tracer.
type Options struct {
	// Cap bounds the retained event count; <= 0 selects DefaultCap.
	Cap int
	// Now supplies wall timestamps; nil selects time.Now. Tests inject a
	// deterministic clock so exports are golden-comparable.
	Now func() time.Time
}

// Tracer collects ended spans. The nil Tracer is the disabled
// implementation.
type Tracer struct {
	mu        sync.Mutex
	now       func() time.Time
	start     time.Time
	cap       int
	defParent *Span // Root() parents under this span when set (propagate.go)
	events    []Event
	dropped   uint64
	nextID    uint64
	nextTrack int
}

// New returns an enabled tracer with default options.
func New() *Tracer { return NewWithOptions(Options{}) }

// NewWithOptions returns an enabled tracer.
func NewWithOptions(o Options) *Tracer {
	if o.Cap <= 0 {
		o.Cap = DefaultCap
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return &Tracer{now: o.Now, start: o.Now(), cap: o.Cap}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Origin is the wall instant the tracer was created, from which every
// event's StartUS counts; the zero time for nil. Merging another
// process's events onto this tracer's clock shifts them by the
// difference of the two origins.
func (t *Tracer) Origin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span is one open unit of traced work. The nil Span is a no-op.
type Span struct {
	t          *Tracer
	id, parent uint64
	track      int
	name       string
	startWall  time.Time
	attrs      []Attr
	hasCycles  bool
	startCycle uint64
	endCycle   uint64
	ended      bool
}

// Root begins a top-level span on a fresh timeline track; nil for the nil
// tracer. When a default parent is installed (SetDefaultParent) the span
// nests under it instead — that is how a worker's eval spans end up under
// its lease span.
func (t *Tracer) Root(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrack++
	if dp := t.defParent; dp != nil && !dp.ended {
		return t.begin(name, dp.id, t.nextTrack, attrs)
	}
	return t.begin(name, 0, t.nextTrack, attrs)
}

// begin allocates a span under the held tracer mutex.
func (t *Tracer) begin(name string, parent uint64, track int, attrs []Attr) *Span {
	t.nextID++
	return &Span{
		t:         t,
		id:        t.nextID,
		parent:    parent,
		track:     track,
		name:      name,
		startWall: t.now(),
		attrs:     append([]Attr(nil), attrs...),
	}
}

// Child begins a nested span on the same track; nil for the nil span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.begin(name, s.id, s.track, attrs)
}

// ChildTrack begins a nested span on a fresh timeline lane. Use it for
// concurrent siblings — worker goroutines of one pool — whose spans
// would overlap (and mis-nest) if they shared their parent's lane.
func (s *Span) ChildTrack(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.nextTrack++
	return s.t.begin(name, s.id, s.t.nextTrack, attrs)
}

// Set appends attributes to an open span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
}

// SetCycles records the span's simulation-cycle window (begin/end cycle
// timestamps alongside the wall ones).
func (s *Span) SetCycles(begin, end uint64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.hasCycles = true
		s.startCycle, s.endCycle = begin, end
	}
}

// End closes the span and appends it to the tracer's log. Ending a span
// twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	e := Event{
		ID:         s.id,
		Parent:     s.parent,
		Track:      s.track,
		Name:       s.name,
		StartUS:    float64(s.startWall.Sub(s.t.start)) / float64(time.Microsecond),
		DurUS:      float64(s.t.now().Sub(s.startWall)) / float64(time.Microsecond),
		HasCycles:  s.hasCycles,
		StartCycle: s.startCycle,
		EndCycle:   s.endCycle,
		Attrs:      s.attrs,
	}
	s.t.record(e)
}

// Instant records a zero-duration point event on its own track.
func (t *Tracer) Instant(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.record(Event{
		ID:      t.nextID,
		Name:    name,
		Instant: true,
		StartUS: float64(t.now().Sub(t.start)) / float64(time.Microsecond),
		Attrs:   append([]Attr(nil), attrs...),
	})
}

// record appends under the held mutex, honoring the cap.
func (t *Tracer) record(e Event) {
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of retained ended events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the retained log, sorted by start time (id
// breaks ties) so exports are deterministic regardless of which worker
// goroutine ended its span first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// sortEvents orders events by (start, id) — the export order.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].StartUS != events[j].StartUS {
			return events[i].StartUS < events[j].StartUS
		}
		return events[i].ID < events[j].ID
	})
}

// argsJSON renders an event's attributes (plus its cycle window) as a
// deterministic JSON object, preserving attribute order.
func argsJSON(e Event) ([]byte, error) {
	var b []byte
	b = append(b, '{')
	first := true
	put := func(k string, v interface{}) error {
		if !first {
			b = append(b, ',')
		}
		first = false
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b = append(b, kb...)
		b = append(b, ':')
		b = append(b, vb...)
		return nil
	}
	for _, a := range e.Attrs {
		if err := put(a.Key, a.Value); err != nil {
			return nil, err
		}
	}
	if e.HasCycles {
		if err := put("start_cycle", e.StartCycle); err != nil {
			return nil, err
		}
		if err := put("end_cycle", e.EndCycle); err != nil {
			return nil, err
		}
	}
	b = append(b, '}')
	return b, nil
}

// fmtUS renders a microsecond timestamp without exponent notation, which
// some trace viewers reject.
func fmtUS(us float64) string {
	return strconv.FormatFloat(us, 'f', 3, 64)
}

// WriteChrome exports the log in the Chrome trace-event format — a JSON
// object with a traceEvents array of "X" (complete) and "i" (instant)
// events — directly loadable in Perfetto or chrome://tracing. Spans of
// one root share a tid (track), so a sweep's jobs render as parallel
// lanes. It is WriteMergedChrome of one unnamed process, so the
// document has no process_name record. A nil tracer writes a valid
// empty trace.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteMergedChrome(w, []Process{{Events: t.Events()}})
}

// chromeLine renders one event as a Chrome trace-event object under the
// given pid (process lane).
func chromeLine(e Event, pid int) (string, error) {
	args, err := argsJSON(e)
	if err != nil {
		return "", err
	}
	name, err := json.Marshal(e.Name)
	if err != nil {
		return "", err
	}
	ph, extra := "X", `,"dur":`+fmtUS(e.DurUS)
	if e.Instant {
		ph, extra = "i", `,"s":"t"`
	}
	return fmt.Sprintf(`{"name":%s,"cat":"gmap","ph":%q,"ts":%s,"pid":%d,"tid":%d%s,"args":%s}`,
		name, ph, fmtUS(e.StartUS), pid, e.Track, extra, args), nil
}

// jsonlEvent is the JSON form of one event.
type jsonlEvent struct {
	ID         uint64          `json:"id"`
	Parent     uint64          `json:"parent,omitempty"`
	Track      int             `json:"track"`
	Name       string          `json:"name"`
	Instant    bool            `json:"instant,omitempty"`
	StartUS    float64         `json:"start_us"`
	DurUS      float64         `json:"dur_us"`
	StartCycle *uint64         `json:"start_cycle,omitempty"`
	EndCycle   *uint64         `json:"end_cycle,omitempty"`
	Attrs      json.RawMessage `json:"attrs,omitempty"`
}

// MarshalJSON renders the event as one JSON object: attributes in
// order under "attrs", and the cycle window only when the span
// recorded one.
func (e Event) MarshalJSON() ([]byte, error) {
	je := jsonlEvent{
		ID: e.ID, Parent: e.Parent, Track: e.Track, Name: e.Name,
		Instant: e.Instant, StartUS: e.StartUS, DurUS: e.DurUS,
	}
	if e.HasCycles {
		je.StartCycle, je.EndCycle = &e.StartCycle, &e.EndCycle
	}
	if len(e.Attrs) > 0 {
		args, err := argsJSON(Event{Attrs: e.Attrs})
		if err != nil {
			return nil, err
		}
		je.Attrs = args
	}
	return json.Marshal(je)
}

// UnmarshalJSON parses MarshalJSON's form, preserving attribute order
// and numeric formatting (attribute numbers decode as json.Number, so a
// re-export is lossless). An attribute whose value is an object or an
// array is an error naming its key.
func (e *Event) UnmarshalJSON(data []byte) error {
	var je jsonlEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	attrs, err := parseAttrs(je.Attrs)
	if err != nil {
		return fmt.Errorf("trace: event %d: %w", je.ID, err)
	}
	*e = Event{
		ID: je.ID, Parent: je.Parent, Track: je.Track, Name: je.Name,
		Instant: je.Instant, StartUS: je.StartUS, DurUS: je.DurUS,
		HasCycles: je.StartCycle != nil || je.EndCycle != nil,
		Attrs:     attrs,
	}
	if je.StartCycle != nil {
		e.StartCycle = *je.StartCycle
	}
	if je.EndCycle != nil {
		e.EndCycle = *je.EndCycle
	}
	return nil
}

// WriteJSONL exports the log as JSON Lines — one event's JSON form per
// line, in deterministic (start, id) order. This is the /trace
// endpoint's stream format. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}
