// Command gmap-served is the clone-and-simulate service: an HTTP server
// over a content-addressed profile/result store and an
// admission-controlled FIFO job queue.
//
// Clients POST profiles (or raw traces) to /v1/profiles and /v1/traces,
// then submit clone/sim/sweep jobs to /v1/jobs. Identical submissions
// dedup onto one job and are served from the result cache; admitted
// jobs are journaled, so a killed server resumes its backlog on restart.
// Each sweep job runs through a coordinator over its own checkpoint,
// with the server as its first worker: `gmap-eval -worker URL` processes
// dialing the same port (/dist/v1/) join the sweep and push to
// /fleet/, and an interrupted sweep resumes from its last merged point.
// Observability (/metrics, /progress, /trace, /debug/pprof) shares the
// port.
//
// Usage:
//
//	gmap-served -store /var/lib/gmap -addr :9400
//	gmap-served -addr 127.0.0.1:0 -addr-file gmap.addr -workers 2 -queue-depth 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/serve"
	"github.com/uteda/gmap/internal/serve/api"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":9400", "listen address; use :0 or 127.0.0.1:0 for an ephemeral port (the bound address is logged)")
		addrFile  = flag.String("addr-file", "", "write the actually-bound address to this file (for scripts using -addr :0)")
		storeDir  = flag.String("store", "gmap-store", "content-addressed store root (profiles, results, job journal, checkpoints)")
		workers   = flag.Int("workers", 1, "jobs executing concurrently")
		depth     = flag.Int("queue-depth", 64, "admitted-but-not-running backlog bound; beyond it submissions get 429")
		sweepWkrs = flag.Int("sweep-workers", 0, "runner pool size of the server's own sweep worker (0 = all CPUs)")
		fsync     = flag.Bool("fsync", false, "fsync journal/result/checkpoint writes (survives machine crash, not just SIGKILL)")
		quiet     = flag.Bool("quiet", false, "suppress per-job log lines")
		distParts = flag.Int("dist-parts", 0, "partitions of each sweep's job space, leased to the server's own worker and to remote ones (0 = 8)")
		distTTL   = flag.Duration("dist-lease-ttl", 0, "sweep lease heartbeat deadline; a remote worker silent this long reads stale on /fleet/status (0 = 30s)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.New()
	tracer := obstrace.New()
	st, err := store.Open(*storeDir, nil, reg)
	if err != nil {
		fatal(err)
	}
	opts := api.Options{
		Store: st,
		Queue: queue.Options{
			Workers: *workers,
			Depth:   *depth,
		},
		SweepWorkers: *sweepWkrs,
		SweepParts:   *distParts,
		LeaseTTL:     *distTTL,
		Fsync:        *fsync,
		Obs:          reg,
		Tracer:       tracer,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...interface{}) {
			log.Printf("gmap-served: "+format, args...)
		}
	}
	svc, err := api.New(opts)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.Start(ctx, "gmap-served", *addr, svc.Handler())
	if err != nil {
		fatal(err)
	}
	log.Printf("gmap-served: listening on http://%s (store %s, %d worker(s), depth %d)",
		srv.Addr(), *storeDir, *workers, *depth)
	if *addrFile != "" {
		if err := fault.WriteFile(nil, *addrFile, []byte(srv.Addr()+"\n")); err != nil {
			fatal(err)
		}
	}
	if err := svc.Start(ctx); err != nil {
		log.Printf("gmap-served: recovery: %v", err)
	}

	<-ctx.Done()
	log.Printf("gmap-served: shutting down (journaled jobs resume on restart)")
	if err := srv.Shutdown(); err != nil {
		log.Printf("gmap-served: shutdown: %v", err)
	}
	svc.Wait()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-served:", err)
	os.Exit(1)
}
