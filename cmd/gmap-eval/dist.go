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
	listen   string        // -dist-listen: coordinator mode
	addrFile string        // -dist-addr-file
	parts    int           // -dist-parts
	leaseTTL time.Duration // -dist-lease-ttl
	fsync    bool          // -fsync: sync the ledger after every append
	traceOut string        // -trace-out: the merged fleet trace, Chrome JSON
}

// coordinatorOptions is the coordinator's configuration for a sweep
// merged into ledger; the caller attaches observability.
func (df distFlags) coordinatorOptions(spec dist.SweepSpec, ledger string) dist.CoordinatorOptions {
	return dist.CoordinatorOptions{
		Spec:     spec,
		Parts:    df.parts,
		LeaseTTL: df.leaseTTL,
		Ledger:   ledger,
		Fsync:    df.fsync,
	}
}

// runCoordinator distributes the sweep: partition the job space, lease
// parts to workers over HTTP, merge streamed results into the
// -checkpoint ledger, and render the merged report once every job is
// recorded. The ledger is the only durable state — re-running the same
// command over it resumes where the previous coordinator died: the
// restart claims the next epoch, which fences the dead incarnation,
// and rewrites the addr file, which workers re-read before every retry.
// Once its workers have drained, it writes the merged fleet trace to
// df.traceOut, when set.
func runCoordinator(ctx context.Context, spec dist.SweepSpec, df distFlags, ledger string, w io.Writer, logf func(string, ...interface{})) error {
	if strings.HasSuffix(df.traceOut, ".jsonl") {
		return fmt.Errorf("-trace-out %s: a coordinator writes the merged trace as Chrome JSON only", df.traceOut)
	}
	// The coordinator is a service, not a simulation hot path: its
	// registry and tracer are always on, so /fleet/ and the merged
	// distributed trace exist for every sweep. Simulation results are
	// observability-blind either way (bit-identity is enforced by the
	// conformance suite).
	reg := obs.New()
	tracer := obstrace.New()
	co := df.coordinatorOptions(spec, ledger)
	co.Obs, co.Trace, co.Logf = reg, tracer, logf
	c, err := dist.NewCoordinator(co)
	if err != nil {
		return err
	}
	defer c.Close()
	// Workers push their reports to the federator under /fleet/.
	fed := fleet.New(fleet.Options{Self: "coordinator", Registry: reg, Tracer: tracer})
	c.SetFleet(fed.Handler())
	srv, err := c.Serve(ctx, df.listen)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	fmt.Fprintf(os.Stderr, "gmap-eval: coordinating %s on %s (epoch %d)\n", spec.Experiment, srv.URL(), c.Epoch())
	if df.addrFile != "" {
		// Atomic rename: a worker re-reading the file never sees a torn
		// address.
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
	if err := c.WriteReport(w); err != nil {
		return err
	}
	c.Drain(ctx)
	if df.traceOut != "" {
		if err := obs.WriteFile(df.traceOut, fed.WriteTrace); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
	}
	return nil
}

// runWorker joins a coordinator and processes leases until the sweep
// completes. The sweep's shape comes from the coordinator inside each
// lease grant; only execution knobs are local. addrFile, re-read
// before every retry, wins over url while it is readable, so a
// coordinator restarted over the same ledger redirects the worker
// without restart.
//
// serveAddr, when non-empty, opts the worker into the fleet view: its
// lease spans carry the lease id of the coordinator's span of the same
// grant, and the registry and span log push to the coordinator's
// /fleet/push (snapshot after every heartbeat, span log at lease end, a
// final report on exit). The same
// registry and tracer are also served locally on serveAddr (-serve,
// same surface as a serial run) for inspection; nothing dials it.
// Without -serve the worker's Obs and Trace stay nil — the simulation
// hot path keeps its single disabled-path branch.
func runWorker(ctx context.Context, url, addrFile, serveAddr string, workers int, logf func(string, ...interface{})) error {
	wo := dist.WorkerOptions{
		Coordinator: url,
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
