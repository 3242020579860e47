// Package fleet federates per-process observability into one surface.
//
// Every gmap process keeps its own registry and span log. In a
// distributed sweep that leaves an operator with N+1 disjoint views and
// no shared key. A Federator — owned by the coordinator process
// (gmap-eval coordinator mode, or gmap-served with -dist-sweeps) —
// joins them from worker pushes alone: a worker that joined the fleet
// POSTs its registry snapshot to /fleet/push after every successful
// lease heartbeat (every TTL/3), its snapshot and span events at every
// lease end, and a final report on exit. Nothing dials a worker. A
// worker that has not pushed for Options.Stale — one lease TTL, the
// deadline on which the coordinator expires its lease — is marked
// stale; a worker whose final report arrived never is.
//
// The merged state serves the many-member case of each local export,
// rendered by the same writer:
//
//	/fleet/metrics       prometheus text (obs.WriteMembers), one
//	                     worker="..." label per source plus an
//	                     unlabeled cross-fleet aggregate
//	/fleet/status        fleet health JSON: per-worker last-push age and
//	                     staleness, plus the owner's own status document
//	                     (coordinator lease/epoch state) under "dist"
//	/fleet/trace/chrome  one Chrome trace-event document
//	                     (obstrace.WriteMergedChrome) merging the owner's
//	                     spans with every pushed worker's span events,
//	                     pid per process, all on the owner's clock
//	                     (load in Perfetto)
//	/fleet/push          worker-side report endpoint (POST)
//
// The package deliberately imports only obs and obs/trace — the dist
// layer mounts it, not the other way round — and a nil *Federator is a
// no-op for every method, matching the obs nil contract.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// Options configures a Federator.
type Options struct {
	// Self names the owning process in merged exports ("coordinator",
	// "gmap-served"). Default "coordinator".
	Self string
	// Registry is the owner's own registry, included in the merged
	// metrics under the Self label. Nil omits the owner's metrics.
	Registry *obs.Registry
	// Tracer is the owner's span log, the root process of the merged
	// trace export. Nil omits owner spans.
	Tracer *obstrace.Tracer
	// Status, when non-nil, supplies the owner's status document embedded
	// in /fleet/status as "dist" (the coordinator's lease/epoch state).
	Status func() interface{}
	// Stale marks a worker stale when it has not pushed for this long.
	// Pass the coordinator's lease TTL: workers push after every
	// heartbeat, so a worker goes stale exactly when its lease would
	// expire. Default 30s, the coordinator's default TTL.
	Stale time.Duration
}

// workerState is everything known about one fleet member.
type workerState struct {
	name     string
	snap     obs.Snapshot
	hasSnap  bool
	events   []obstrace.Event
	lastSeen time.Time
	pushes   uint64
	final    bool
}

// Federator merges fleet observability from worker pushes. Create with
// New and mount Handler.
type Federator struct {
	o Options

	mu      sync.Mutex
	workers map[string]*workerState
	pushes  uint64
}

// New builds a Federator; usable even when o has every field zero
// (exports then cover only what workers push).
func New(o Options) *Federator {
	if o.Self == "" {
		o.Self = "coordinator"
	}
	if o.Stale <= 0 {
		o.Stale = 30 * time.Second
	}
	return &Federator{o: o, workers: make(map[string]*workerState)}
}

// PushRequest is the worker-side report body for POST /fleet/push.
type PushRequest struct {
	// Worker names the reporting process (required).
	Worker string `json:"worker"`
	// Final marks the report as the worker's last: it is never replaced
	// by a later non-final push, and the worker is never marked stale.
	Final bool `json:"final,omitempty"`
	// Snapshot is the worker's registry export at push time.
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
	// Trace carries the worker's span log (Tracer.Events); it replaces
	// any earlier pushed events wholesale (the worker's tracer is
	// cumulative, so the latest push supersedes). Heartbeat pushes leave
	// it empty and keep the events of the last lease end.
	Trace []obstrace.Event `json:"trace,omitempty"`
	// TraceOriginUnixNS is the worker tracer's origin (Tracer.Origin) in
	// Unix nanoseconds, from which Trace's StartUS count. The federator
	// shifts the events onto its owner tracer's clock; a push without it
	// merges them unshifted.
	TraceOriginUnixNS int64 `json:"trace_origin_unix_ns,omitempty"`
}

// Record folds one worker report in. Exposed for in-process callers;
// HTTP workers reach it through POST /fleet/push. It keeps pr.Trace,
// shifting its events onto the owner's clock in place.
func (f *Federator) Record(pr PushRequest) error {
	if f == nil {
		return nil
	}
	if pr.Worker == "" {
		return fmt.Errorf("fleet: push without worker name")
	}
	events := pr.Trace
	if pr.TraceOriginUnixNS != 0 && f.o.Tracer != nil {
		shiftUS := float64(pr.TraceOriginUnixNS-f.o.Tracer.Origin().UnixNano()) / 1e3
		for i := range events {
			events[i].StartUS += shiftUS
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ws := f.workers[pr.Worker]
	if ws == nil {
		ws = &workerState{name: pr.Worker}
		f.workers[pr.Worker] = ws
	}
	if ws.final && !pr.Final {
		// A heartbeat push that timed out on the worker can still land
		// after its final report; the final report stays authoritative.
		return nil
	}
	if pr.Snapshot != nil {
		ws.snap, ws.hasSnap = *pr.Snapshot, true
	}
	if len(events) > 0 {
		ws.events = events
	}
	ws.final = pr.Final
	ws.lastSeen = time.Now()
	ws.pushes++
	f.pushes++
	return nil
}

// WorkerHealth is one fleet member's entry in a FleetStatus.
type WorkerHealth struct {
	Name           string `json:"name"`
	LastSeenUnixNS int64  `json:"last_seen_unix_ns"`
	AgeNS          int64  `json:"age_ns"`
	Stale          bool   `json:"stale"`
	Final          bool   `json:"final"`
	Pushes         uint64 `json:"pushes"`
	// Counters carries the worker's dist.* counters (jobs done, retries,
	// endpoint rotations) — the fleet-health subset, not the whole
	// registry.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// FleetStatus is the /fleet/status document.
type FleetStatus struct {
	Self         string         `json:"self"`
	NowUnixNS    int64          `json:"now_unix_ns"`
	StaleAfterNS int64          `json:"stale_after_ns"`
	Pushes       uint64         `json:"pushes"`
	Workers      []WorkerHealth `json:"workers"`
	// Dist is the owner's own status document (the coordinator's
	// lease/epoch state), embedded verbatim.
	Dist interface{} `json:"dist,omitempty"`
}

// StatusSnapshot freezes the fleet view.
func (f *Federator) StatusSnapshot() FleetStatus {
	if f == nil {
		return FleetStatus{}
	}
	now := time.Now()
	f.mu.Lock()
	fs := FleetStatus{
		Self:         f.o.Self,
		NowUnixNS:    now.UnixNano(),
		StaleAfterNS: f.o.Stale.Nanoseconds(),
		Pushes:       f.pushes,
	}
	for _, ws := range f.workers {
		wh := WorkerHealth{
			Name:           ws.name,
			LastSeenUnixNS: ws.lastSeen.UnixNano(),
			AgeNS:          now.Sub(ws.lastSeen).Nanoseconds(),
			Final:          ws.final,
			Pushes:         ws.pushes,
		}
		// A finished worker is not stale — it reported out and left.
		wh.Stale = !ws.final && now.Sub(ws.lastSeen) > f.o.Stale
		for name, v := range ws.snap.Counters {
			if strings.HasPrefix(name, "dist.") {
				if wh.Counters == nil {
					wh.Counters = make(map[string]uint64)
				}
				wh.Counters[name] = v
			}
		}
		fs.Workers = append(fs.Workers, wh)
	}
	f.mu.Unlock()
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].Name < fs.Workers[j].Name })
	if f.o.Status != nil {
		fs.Dist = f.o.Status()
	}
	return fs
}

// WriteMetrics renders the merged fleet exposition that /fleet/metrics
// serves: obs.WriteMembers over the owner and every worker that has
// pushed a snapshot, each labeled by name, owner first and workers
// sorted by name. Two workers reporting the same counter therefore sum
// into the aggregate while the labels keep their values apart. A nil
// Federator writes nothing.
func (f *Federator) WriteMetrics(w io.Writer) error {
	var members []obs.Member
	if f != nil {
		members = f.members()
	}
	return obs.WriteMembers(w, members)
}

// members returns every member that has reported metrics, owner first,
// workers sorted by name.
func (f *Federator) members() []obs.Member {
	var out []obs.Member
	if f.o.Registry != nil {
		out = append(out, obs.Member{Name: f.o.Self, Snap: f.o.Registry.Snapshot()})
	}
	f.mu.Lock()
	var names []string
	for name, ws := range f.workers {
		if ws.hasSnap {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, obs.Member{Name: name, Snap: f.workers[name].snap})
	}
	f.mu.Unlock()
	return out
}

// traceProcesses assembles the merged-export process list: the owner's
// tracer first, then one process per worker that has pushed a span log
// (at its first lease end, or on exit), sorted by name.
func (f *Federator) traceProcesses() []obstrace.Process {
	var procs []obstrace.Process
	if f.o.Tracer != nil {
		procs = append(procs, obstrace.Process{Name: f.o.Self, Events: f.o.Tracer.Events()})
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var names []string
	for name, ws := range f.workers {
		if len(ws.events) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		procs = append(procs, obstrace.Process{Name: name, Events: f.workers[name].events})
	}
	return procs
}

// WriteTrace writes the merged Chrome trace-event document that
// /fleet/trace/chrome serves. A nil Federator writes an empty trace.
func (f *Federator) WriteTrace(w io.Writer) error {
	var procs []obstrace.Process
	if f != nil {
		procs = f.traceProcesses()
	}
	return obstrace.WriteMergedChrome(w, procs)
}

// Handler serves the federation surface; mount at /fleet/.
func (f *Federator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := f.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /fleet/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(f.StatusSnapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("GET /fleet/trace/chrome", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="gmap-fleet-trace.json"`)
		if err := f.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("POST /fleet/push", func(w http.ResponseWriter, r *http.Request) {
		var pr PushRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&pr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := f.Record(pr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
