package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/serve"
)

// StandbyOptions configures RunStandby.
type StandbyOptions struct {
	// Spec and Ledger mirror the active coordinator's CoordinatorOptions:
	// the standby must enumerate the same job universe and share the same
	// durable ledger (the files are the replicated state — there is no
	// other channel between the incarnations).
	Spec   SweepSpec
	Ledger string
	// Listen is the address the takeover coordinator binds (":0" picks a
	// free port).
	Listen string
	// AddrFile, when non-empty, is rewritten with the takeover
	// coordinator's URL so workers re-reading it rediscover the sweep.
	AddrFile string
	// Watch are the active coordinator's candidate URLs, health-checked
	// in order until one answers.
	Watch []string
	// HealthInterval is the probe cadence; <= 0 defaults to 1s.
	HealthInterval time.Duration
	// HealthMisses is how many consecutive failed probes (with no ledger
	// or lease-journal growth backing them up) trigger takeover; <= 0
	// defaults to 3.
	HealthMisses int
	// Parts/LeaseTTL configure the takeover coordinator; zero values
	// take the coordinator defaults.
	Parts    int
	LeaseTTL time.Duration
	// FS routes ledger and journal I/O; nil selects the real filesystem.
	FS fault.FS
	// Obs, when non-nil, collects standby counters (dist.health_misses,
	// dist.takeovers) and is handed to the takeover coordinator.
	Obs *obs.Registry
	// Trace, when non-nil, is handed to the takeover coordinator so a
	// post-takeover sweep keeps emitting sweep/lease spans.
	Trace *obstrace.Tracer
	// HTTPClient overrides the probe transport (tests); nil uses a
	// short-timeout default.
	HTTPClient *http.Client
	// Logf, when non-nil, receives standby progress lines.
	Logf func(format string, args ...interface{})
	// Probe, when non-nil, replaces the HTTP status probe entirely
	// (tests drive takeover schedules without a live server). It
	// returns the active coordinator's status or an error meaning
	// "unreachable".
	Probe func(ctx context.Context) (Status, error)
}

// Takeover is the result of a standby promoting itself.
type Takeover struct {
	// Coordinator is the promoted incarnation, already serving on Server
	// (when Listen was set) under a bumped, persisted epoch.
	Coordinator *Coordinator
	// Server is the takeover coordinator's HTTP server; nil when
	// StandbyOptions.Listen was empty.
	Server *serve.Server
}

// RunStandby watches an active coordinator and takes over when it goes
// dark. The standby's evidence is deliberately two-channel:
//
//   - The health probe (GET /healthz, then /dist/v1/status, on each
//     Watch URL) says whether the active coordinator answers.
//   - The shared ledger and lease journal say whether it is making
//     progress. Any growth in either file vetoes takeover and resets
//     the miss count, no matter what the probe says — a coordinator
//     that is merging results is alive even if its HTTP surface is
//     drowning, and promoting next to it would only burn an epoch.
//
// Once HealthMisses consecutive probes fail with no file growth, the
// standby promotes: NewCoordinator over the same ledger strictly
// salvages the merged results, claims epoch+1 (fencing the predecessor
// — even one that comes back from a GC pause mid-promotion), starts
// serving on Listen, and rewrites AddrFile so workers rediscover the
// sweep. The caller owns the returned coordinator and server.
//
// Returns (nil, nil) when the watched sweep completes without needing
// takeover — the probe's status reports Done — or when ctx is
// cancelled before takeover (with ctx.Err()).
func RunStandby(ctx context.Context, o StandbyOptions) (*Takeover, error) {
	if o.Ledger == "" {
		return nil, fmt.Errorf("dist: standby requires a ledger path")
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.HealthMisses <= 0 {
		o.HealthMisses = 3
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	probe := o.Probe
	if probe == nil {
		hc := o.HTTPClient
		if hc == nil {
			hc = &http.Client{Timeout: 5 * time.Second}
		}
		probe = func(ctx context.Context) (Status, error) {
			var lastErr error
			for _, u := range o.Watch {
				base := normalizeEndpoint(u)
				if base == "" {
					continue
				}
				st, err := probeHealth(ctx, hc, base)
				if err == nil {
					return st, nil
				}
				lastErr = err
			}
			if lastErr == nil {
				lastErr = fmt.Errorf("dist: standby has no watch endpoints")
			}
			return Status{}, lastErr
		}
	}

	fsys := o.FS
	if fsys == nil {
		fsys = fault.OS
	}
	ledgerTail := runner.NewCheckpointTail(fsys, o.Ledger)
	journalTail := runner.NewCheckpointTail(fsys, JournalPath(o.Ledger))
	// Consume whatever already exists so only growth after this instant
	// counts as liveness.
	_, _ = ledgerTail.Poll()
	_, _ = journalTail.Poll()

	misses := 0
	tick := time.NewTicker(o.HealthInterval)
	defer tick.Stop()
	logf("dist: standby: watching %v over ledger %s (takeover after %d misses %v apart)",
		o.Watch, o.Ledger, o.HealthMisses, o.HealthInterval)
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}

		st, err := probe(ctx)
		if err == nil {
			misses = 0
			if st.Done {
				logf("dist: standby: sweep complete on active coordinator (epoch %d); standing down", st.Epoch)
				return nil, nil
			}
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}

		// The probe failed — but file growth is better evidence than an
		// HTTP answer. Growth vetoes the miss.
		le, _ := ledgerTail.Poll()
		je, _ := journalTail.Poll()
		if len(le) > 0 || len(je) > 0 {
			logf("dist: standby: probe failed (%v) but ledger/journal grew (%d+%d lines); vetoing", err, len(le), len(je))
			misses = 0
			continue
		}
		misses++
		o.Obs.Counter("dist.health_misses").Inc()
		logf("dist: standby: probe failed (%v), no file growth: miss %d/%d", err, misses, o.HealthMisses)
		if misses < o.HealthMisses {
			continue
		}

		logf("dist: standby: active coordinator declared dead; taking over")
		return promote(ctx, o, logf)
	}
}

// probeHealth is the two-step liveness probe: a cheap GET /healthz
// answers "the process serves", and only then is the full status
// fetched. A coordinator that answers /healthz but whose status
// endpoint errors still counts as alive (zero status, nil error) —
// liveness is the takeover question, not status availability. Any other
// /healthz answer, 404 included, is a failed probe.
func probeHealth(ctx context.Context, hc *http.Client, base string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Status{}, err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("dist: health probe: %s", resp.Status)
	}
	st, _ := probeStatus(ctx, hc, base) // zero on error: alive, status unanswerable
	return st, nil
}

// probeStatus GETs one coordinator's status endpoint.
func probeStatus(ctx context.Context, hc *http.Client, base string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/dist/v1/status", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("dist: status probe: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("dist: status probe: %w", err)
	}
	return st, nil
}

// promote builds the takeover coordinator: strict salvage of the shared
// ledger plus the epoch bump that fences the predecessor, then the
// serving/rediscovery plumbing.
func promote(ctx context.Context, o StandbyOptions, logf func(string, ...interface{})) (*Takeover, error) {
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     o.Spec,
		Parts:    o.Parts,
		LeaseTTL: o.LeaseTTL,
		Ledger:   o.Ledger,
		FS:       o.FS,
		Obs:      o.Obs,
		Trace:    o.Trace,
		Logf:     o.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: takeover: %w", err)
	}
	o.Obs.Counter("dist.takeovers").Inc()
	t := &Takeover{Coordinator: c}
	if o.Listen != "" {
		srv, err := c.Serve(ctx, o.Listen)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("dist: takeover: %w", err)
		}
		t.Server = srv
		logf("dist: takeover: epoch %d serving on %s", c.Epoch(), srv.URL())
		if o.AddrFile != "" {
			fsys := o.FS
			if fsys == nil {
				fsys = fault.OS
			}
			if err := WriteAddrFile(fsys, o.AddrFile, srv.URL()); err != nil {
				logf("dist: takeover: addr file %s: %v (workers must use static endpoints)", o.AddrFile, err)
			}
		}
	}
	return t, nil
}
