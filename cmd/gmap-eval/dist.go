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
	"github.com/uteda/gmap/internal/serve/api"
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
	fleetInterval  time.Duration // -fleet-interval: federation scrape cadence
}

// federate wires the fleet federator onto a live coordinator: scrape
// targets come from the coordinator's worker roster (workers that
// self-announced an exposition URL on lease), the owner status document
// is the coordinator's own snapshot, and the merged surface mounts
// under /fleet/ on the coordinator's existing listener. Returns the
// stop function that halts the scrape loop.
func federate(ctx context.Context, c *dist.Coordinator, reg *obs.Registry, tracer *obstrace.Tracer, interval time.Duration, logf func(string, ...interface{})) func() {
	fed := fleet.New(fleet.Options{
		Self:     "coordinator",
		Registry: reg,
		Tracer:   tracer,
		Interval: interval,
		Targets: func() []fleet.Source {
			var srcs []fleet.Source
			for _, ws := range c.StatusSnapshot().Workers {
				if ws.ObsURL != "" {
					srcs = append(srcs, fleet.Source{Name: ws.Name, URL: ws.ObsURL})
				}
			}
			return srcs
		},
		Status: func() interface{} { return c.StatusSnapshot() },
		Logf:   logf,
	})
	c.SetFleet(fed.Handler())
	fctx, cancel := context.WithCancel(ctx)
	go fed.Run(fctx)
	return cancel
}

// runCoordinator distributes the sweep: partition the job space, lease
// parts to workers over HTTP, merge streamed results into the
// -checkpoint ledger, and render the merged report once every job is
// recorded. The ledger is the only durable state — re-running the same
// command over it resumes where the previous coordinator died, and a
// -dist-standby process watching the same ledger takes over live.
func runCoordinator(ctx context.Context, spec api.JobSpec, df distFlags, ledger string, w io.Writer, logf func(string, ...interface{})) error {
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
	stopFed := federate(ctx, c, reg, tracer, df.fleetInterval, logf)
	defer stopFed()
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
func runStandby(ctx context.Context, spec api.JobSpec, df distFlags, ledger string, w io.Writer, logf func(string, ...interface{})) error {
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
	stopFed := federate(ctx, c, reg, tracer, df.fleetInterval, logf)
	defer stopFed()
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
// serveAddr, when non-empty, additionally starts the exposition server
// (-serve, same surface as a serial run) and opts the worker into the
// fleet: the exposition URL rides in each lease request so the
// coordinator's federator discovers it, spans parent under the
// coordinator's sweep trace, and tallies push on lease end and
// shutdown. Without -serve the worker's Obs and Trace stay nil — the
// simulation hot path keeps its single disabled-path branch.
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
		wo.ObsURL = "http://" + srv.Addr()
		fmt.Fprintf(os.Stderr, "gmap-eval: worker observability on %s\n", wo.ObsURL)
	}
	return dist.RunWorker(ctx, wo)
}
