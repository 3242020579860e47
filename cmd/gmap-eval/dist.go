package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obsserve "github.com/uteda/gmap/internal/obs/serve"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// distFlags are the distributed-sweep knobs; the sweep-shape flags
// (-exp, -benchmarks, -scale, ...) are shared with the serial path.
type distFlags struct {
	listen         string        // -dist-listen: coordinator mode
	addrFile       string        // -dist-addr-file
	parts          int           // -dist-parts
	leaseTTL       time.Duration // -dist-lease-ttl
	worker         string        // -worker: worker mode (comma-separated endpoints)
	workerAddrFile string        // -worker-addr-file: coordinator discovery file
	standby        bool          // -dist-standby: standby/failover mode
	healthInterval time.Duration // -dist-health-interval
	healthMisses   int           // -dist-health-misses
}

// federate mounts the fleet federator under /fleet/ on a coordinator's
// listener: workers push their reports there, the owner status document
// is the coordinator's own snapshot, and a worker goes stale after one
// lease TTL without a push — when its lease would expire too.
func federate(c *dist.Coordinator, reg *obs.Registry, tracer *obstrace.Tracer, leaseTTL time.Duration) {
	c.SetFleet(fleet.New(fleet.Options{
		Self:     "coordinator",
		Registry: reg,
		Tracer:   tracer,
		Status:   func() interface{} { return c.StatusSnapshot() },
		Stale:    leaseTTL,
	}).Handler())
}

// runCoordinator distributes the sweep: partition the job space, lease
// parts to workers over HTTP, merge streamed results into the
// -checkpoint ledger, and render the merged report once every job is
// recorded. The ledger is the only durable state — re-running the same
// command over it resumes where the previous coordinator died, and a
// -dist-standby process watching the same ledger takes over live.
func runCoordinator(ctx context.Context, spec dist.SweepSpec, df distFlags, ledger string, w io.Writer, logf func(string, ...interface{})) error {
	if ledger == "" {
		return fmt.Errorf("-dist-listen requires -checkpoint (the merge ledger)")
	}
	// The coordinator is a service, not a simulation hot path: its
	// registry and tracer are always on, so /fleet/ and the merged
	// distributed trace exist for every sweep. Simulation results are
	// observability-blind either way (bit-identity is enforced by the
	// conformance suite).
	reg := obs.New()
	tracer := obstrace.New()
	c, err := dist.NewCoordinator(dist.CoordinatorOptions{
		Spec:     spec,
		Parts:    df.parts,
		LeaseTTL: df.leaseTTL,
		Ledger:   ledger,
		Obs:      reg,
		Trace:    tracer,
		Logf:     logf,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	federate(c, reg, tracer, df.leaseTTL)
	srv, err := c.Serve(ctx, df.listen)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	fmt.Fprintf(os.Stderr, "gmap-eval: coordinating %s on %s (epoch %d)\n", spec.Experiment, srv.URL(), c.Epoch())
	if df.addrFile != "" {
		// Atomic rename, same as a standby's takeover rewrite: a worker
		// polling the file never reads a torn address.
		if err := dist.WriteAddrFile(nil, df.addrFile, srv.URL()); err != nil {
			return err
		}
	}
	if err := c.WaitDone(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gmap-eval: interrupted; merged points saved to %s, re-run to resume\n", ledger)
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	return c.WriteReport(w)
}

// runStandby watches the active coordinator and, if it goes dark,
// takes over the sweep from the shared ledger: salvage, epoch bump
// (fencing the predecessor), serve, rewrite the addr file, and render
// the report when the sweep completes.
func runStandby(ctx context.Context, spec dist.SweepSpec, df distFlags, ledger string, w io.Writer, logf func(string, ...interface{})) error {
	if ledger == "" {
		return fmt.Errorf("-dist-standby requires -checkpoint (the shared merge ledger)")
	}
	var watch []string
	if df.worker != "" {
		watch = strings.Split(df.worker, ",")
	}
	if len(watch) == 0 && df.workerAddrFile == "" {
		return fmt.Errorf("-dist-standby requires the active coordinator's URL (-worker) or -worker-addr-file")
	}
	if len(watch) == 0 && df.workerAddrFile != "" {
		data, err := os.ReadFile(df.workerAddrFile)
		if err != nil {
			return fmt.Errorf("-worker-addr-file: %w", err)
		}
		watch = []string{strings.TrimSpace(string(data))}
	}
	reg := obs.New()
	tracer := obstrace.New()
	t, err := dist.RunStandby(ctx, dist.StandbyOptions{
		Spec:           spec,
		Ledger:         ledger,
		Listen:         df.listen,
		AddrFile:       df.addrFile,
		Watch:          watch,
		HealthInterval: df.healthInterval,
		HealthMisses:   df.healthMisses,
		Parts:          df.parts,
		LeaseTTL:       df.leaseTTL,
		Obs:            reg,
		Trace:          tracer,
		Logf:           logf,
	})
	if err != nil {
		return err
	}
	if t == nil {
		fmt.Fprintf(os.Stderr, "gmap-eval: standby: active coordinator finished the sweep; standing down\n")
		return nil
	}
	c := t.Coordinator
	defer c.Close()
	// The takeover coordinator's server is already live; SetFleet is
	// resolved per request, so federation attaches after the fact.
	federate(c, reg, tracer, df.leaseTTL)
	if t.Server != nil {
		defer t.Server.Shutdown()
		fmt.Fprintf(os.Stderr, "gmap-eval: standby took over %s on %s (epoch %d)\n", spec.Experiment, t.Server.URL(), c.Epoch())
	}
	if err := c.WaitDone(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gmap-eval: interrupted; merged points saved to %s, re-run to resume\n", ledger)
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	return c.WriteReport(w)
}

// runWorker joins a coordinator and processes leases until the sweep
// completes. The sweep's shape comes from the coordinator inside each
// lease grant; only execution knobs are local. urls may name several
// coordinator endpoints (active plus standby), and addrFile — re-read
// before every retry — overrides them all, so a standby takeover
// redirects the worker without restart.
//
// serveAddr, when non-empty, opts the worker into the fleet: spans
// parent under the coordinator's sweep trace, and the registry and span
// log push to the coordinator's /fleet/push (snapshot after every
// heartbeat, span log at lease end, a final report on exit). The same
// registry and tracer are also served locally on serveAddr (-serve,
// same surface as a serial run) for inspection; nothing dials it.
// Without -serve the worker's Obs and Trace stay nil — the simulation
// hot path keeps its single disabled-path branch.
func runWorker(ctx context.Context, urls, addrFile, serveAddr string, workers int, logf func(string, ...interface{})) error {
	var endpoints []string
	if urls != "" {
		endpoints = strings.Split(urls, ",")
	}
	var first string
	if len(endpoints) > 0 {
		first = endpoints[0]
		endpoints = endpoints[1:]
	}
	wo := dist.WorkerOptions{
		Coordinator: first,
		Endpoints:   endpoints,
		AddrFile:    addrFile,
		Workers:     workers,
		Logf:        logf,
	}
	if serveAddr != "" {
		reg := obs.New()
		tracer := obstrace.New()
		srv, err := obsserve.Start(ctx, obsserve.Options{
			Addr:     serveAddr,
			Registry: reg,
			Tracer:   tracer,
		})
		if err != nil {
			return err
		}
		defer srv.Shutdown()
		wo.Obs = reg
		wo.Trace = tracer
		fmt.Fprintf(os.Stderr, "gmap-eval: worker observability on http://%s\n", srv.Addr())
	}
	return dist.RunWorker(ctx, wo)
}
