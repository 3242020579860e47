package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/runner"
)

// failoverSeed is the randomized kill-point seed; the nightly fault-soak
// matrix rotates GMAP_DIST_FAILOVER_SEED so every night kills the
// coordinator at a different point of the sweep.
func failoverSeed(t *testing.T) int64 {
	if s := os.Getenv("GMAP_DIST_FAILOVER_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GMAP_DIST_FAILOVER_SEED=%q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestFailoverConformance is the recovery contract: a sweep split
// across N ∈ {2,4} workers whose coordinator is killed (ungracefully —
// the server stops answering, the coordinator object is abandoned
// un-Closed, exactly what kill -9 leaves behind) at a seed-randomized
// mid-sweep point, and then restarted over the same ledger on a new
// port, must finish under the restarted coordinator — the workers
// finding it through the addr file — and merge to bytes identical to
// the serial run. Afterwards the deposed incarnation's late traffic — a
// valid-looking result batch carrying its old epoch — must be rejected
// whole, pre-write, and the ledger must still pass strict salvage.
func TestFailoverConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep failover; skipped in -short")
	}
	serial := serialReport(t, "fig6a")
	seed := failoverSeed(t)
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			runFailover(t, n, seed, serial)
		})
	}
}

func runFailover(t *testing.T, n int, seed int64, serial string) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	addrFile := filepath.Join(dir, "coord.addr")
	reg := obs.New()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Active coordinator (epoch 1).
	co := CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    4,
		LeaseTTL: 2 * time.Second,
		Ledger:   ledger,
		Obs:      reg,
		Logf:     t.Logf,
	}
	cA, err := NewCoordinator(co)
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := cA.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAddrFile(nil, addrFile, srvA.URL()); err != nil {
		t.Fatal(err)
	}

	// Workers discover the coordinator through the addr file only, so
	// the restart below redirects them through the file alone.
	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = RunWorker(ctx, WorkerOptions{
				AddrFile: addrFile,
				Name:     fmt.Sprintf("w%d", i),
				Workers:  2,
				// A retry every Poll for 30s covers the restart below,
				// under -race too.
				Poll:    10 * time.Millisecond,
				Retries: 3000,
				Obs:     reg,
				Logf:    t.Logf,
			})
		}()
	}

	// Kill the coordinator at a randomized mid-sweep point: somewhere
	// past the first merged result, before the last. 30 jobs total.
	rng := rand.New(rand.NewSource(seed + int64(n)))
	killAt := 1 + rng.Intn(25)
	t.Logf("failover: killing active coordinator once %d/30 jobs merged (seed %d)", killAt, seed)
	deadline := time.After(2 * time.Minute)
	for cA.StatusSnapshot().DoneJobs < killAt {
		select {
		case <-deadline:
			t.Fatalf("never reached kill point %d: %+v", killAt, cA.StatusSnapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// kill -9 semantics in-process: the HTTP surface vanishes, and the
	// coordinator object is left un-Closed with its ledger appender open
	// — nobody flushes or cleans anything up.
	srvA.Shutdown()

	// Restart only once a worker has met the dead coordinator and begun
	// retrying, so the workers must rediscover the successor through
	// the rewritten addr file.
	retries := func() uint64 {
		return reg.Counter("dist.lease_retries").Value() +
			reg.Counter("dist.heartbeat_retries").Value() +
			reg.Counter("dist.delivery_retries").Value()
	}
	for retries() == 0 {
		select {
		case <-deadline:
			t.Fatal("no worker retried against the dead coordinator")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Restart: the same options over the same ledger, on a fresh port.
	// It salvages the merged results and claims epoch 2, which fences
	// the un-Closed corpse; the addr-file rewrite redirects the workers.
	cB, err := NewCoordinator(co)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := cB.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Shutdown()
	if err := WriteAddrFile(nil, addrFile, srvB.URL()); err != nil {
		t.Fatal(err)
	}
	if got := cB.Epoch(); got != 2 {
		t.Errorf("restarted coordinator's epoch = %d, want 2", got)
	}
	if cB.StatusSnapshot().Restored < killAt {
		t.Errorf("restart restored %d jobs, expected at least the %d merged pre-kill",
			cB.StatusSnapshot().Restored, killAt)
	}

	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := cB.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}

	// Split-brain probe: the deposed incarnation delivers a late result
	// batch — valid JSON, a real in-universe key, but fenced to epoch 1.
	// It must be rejected whole before any ledger write, by either side:
	// the old coordinator self-fences on its own fence check (note its
	// ledger appender was never closed — this is the first moment it
	// learns it is deposed), and the new one rejects the stale epoch at
	// the door.
	sp := quickSpec("fig6a")
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	allKeys, err := sp.EvalOptions().SweepKeys(sp.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	late := []Entry{{Key: allKeys[0], Value: json.RawMessage(`{"tampered":true}`), ElapsedNS: 1}}
	if _, _, err := cA.Results("w0", "lease-1-0001", 1, late); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed coordinator accepted a late batch: %v", err)
	}
	if _, _, err := cB.Results("w0", "lease-1-0001", 1, late); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("restarted coordinator accepted an epoch-1 batch: %v", err)
	}
	if _, err := cA.Lease("zombie"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed coordinator still grants leases: %v", err)
	}

	if err := cB.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cB.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != serial {
		t.Errorf("post-failover merged report differs from serial:\n--- dist ---\n%s--- serial ---\n%s", buf.String(), serial)
	}
	// The ledger survived two incarnations and a fenced zombie: strict
	// salvage must still see exactly one line per job.
	vals, sv, err := runner.SalvageStrict(nil, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 30 || sv.Lines != sv.Entries {
		t.Errorf("ledger %d entries / %d lines after failover, want 30 deduplicated", len(vals), sv.Lines)
	}
}

// TestChaosSplitBrainFencing is the fast, synthetic version of the
// split-brain guarantee: a second coordinator claiming the same ledger
// bumps the persisted epoch, after which every mutating operation of
// the first — results, leases, heartbeats, completions — answers
// ErrStaleEpoch without writing a byte, and the first incarnation's
// ledger appender is permanently closed.
func TestChaosSplitBrainFencing(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	c1, keys, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, LeaseTTL: time.Minute, Ledger: ledger})
	g1 := mustLease(t, c1, "w1")
	if _, _, err := c1.Results("w1", g1.Lease, g1.Epoch, []Entry{{Key: g1.Keys[0], Value: payloadFor(g1.Keys[0]), ElapsedNS: 1}}); err != nil {
		t.Fatal(err)
	}

	// Takeover: same ledger, fresh incarnation. Epoch 1 → 2, and the
	// merged result is restored.
	c2, _, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, LeaseTTL: time.Minute, Ledger: ledger})
	if e1, e2 := c1.Epoch(), c2.Epoch(); e2 != e1+1 {
		t.Fatalf("epochs %d then %d, want a bump", e1, e2)
	}
	if got := c2.StatusSnapshot().Restored; got != 1 {
		t.Fatalf("takeover restored %d, want 1", got)
	}

	// Every mutating op of the deposed incarnation is fenced, and the
	// rejected batch must leave no trace in the ledger.
	entries := []Entry{{Key: g1.Keys[1], Value: payloadFor(g1.Keys[1]), ElapsedNS: 1}}
	if _, _, err := c1.Results("w1", g1.Lease, g1.Epoch, entries); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed Results: %v", err)
	}
	if _, err := c1.Lease("w1"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed Lease: %v", err)
	}
	if err := c1.Heartbeat("w1", g1.Lease, g1.Epoch); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed Heartbeat: %v", err)
	}
	if st := c1.StatusSnapshot(); !st.Deposed {
		t.Errorf("deposed coordinator's status %+v does not say so", st)
	}
	if _, err := c1.Replay(); err == nil {
		t.Error("deposed coordinator offered a replay")
	}

	// The new incarnation also fences any batch still quoting epoch 1,
	// even on a lease id it never granted.
	if _, _, err := c2.Results("w1", g1.Lease, g1.Epoch, entries); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale-epoch batch at the takeover: %v", err)
	}

	// The ledger holds exactly the one pre-takeover result; the fenced
	// batches wrote nothing.
	vals, sv, err := runner.SalvageStrict(nil, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || sv.Lines != 1 {
		t.Fatalf("ledger %d entries / %d lines, want exactly 1", len(vals), sv.Lines)
	}

	// The successor finishes the sweep normally.
	for {
		g := mustLease(t, c2, "w2")
		if g.Status == GrantDone {
			break
		}
		var es []Entry
		for _, k := range g.Keys {
			es = append(es, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1})
		}
		if _, _, err := c2.Results("w2", g.Lease, g.Epoch, es); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if vals, _, err := runner.SalvageStrict(nil, ledger); err != nil || len(vals) != len(keys) {
		t.Fatalf("final ledger %d entries (%v), want %d", len(vals), err, len(keys))
	}
	_ = c1.Close()
}

// TestEpochFencingProperty drives randomized takeover/delivery
// interleavings on the fake clock and asserts the two fencing
// properties the design document promises:
//
//	(a) a batch fenced to a stale epoch is rejected atomically pre-write
//	    — the ledger line count never moves on a rejection, for ANY
//	    interleaving of takeovers and deliveries;
//	(b) after every takeover-then-re-lease the one-live-lease-per-part
//	    and done ∪ remaining universe invariants hold on the live
//	    incarnation.
func TestEpochFencingProperty(t *testing.T) {
	cases := proptest.N(t, 3, 12)
	for ci := 0; ci < cases; ci++ {
		ci := ci
		t.Run(fmt.Sprintf("seed=%d", ci), func(t *testing.T) {
			g := proptest.New(uint64(4000 + ci))
			ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
			nkeys := 10 + g.R.Intn(20)
			ttl := 10 * time.Second

			fresh := func() *Coordinator {
				c, _, _ := syntheticCoordinator(t, nkeys, CoordinatorOptions{
					Parts:    1 + g.R.Intn(4),
					LeaseTTL: ttl,
					Ledger:   ledger,
				})
				return c
			}
			live := fresh()
			old := []*Coordinator{} // every deposed incarnation, still callable
			type grant struct {
				from   *Coordinator
				worker string
				g      LeaseGrant
			}
			var grants []grant

			ledgerLines := func() int {
				_, sv, err := runner.SalvageCheckpoint(nil, ledger)
				if err != nil {
					t.Fatal(err)
				}
				return sv.Lines
			}

			steps := 80 + g.R.Intn(80)
			for s := 0; s < steps; s++ {
				switch g.R.Intn(8) {
				case 0: // takeover: a new incarnation claims the ledger
					old = append(old, live)
					live = fresh()
					// (b) the re-built incarnation starts structurally sound.
					checkInvariants(t, live)
				case 1, 2: // lease from a random incarnation (live or deposed)
					c := live
					if len(old) > 0 && g.R.Bool(0.3) {
						c = old[g.R.Intn(len(old))]
					}
					worker := fmt.Sprintf("w%d", g.R.Intn(3))
					lg, err := c.Lease(worker)
					if err != nil {
						if !errors.Is(err, ErrStaleEpoch) || c == live {
							t.Fatalf("lease: %v (live=%v)", err, c == live)
						}
						continue
					}
					if lg.Status == GrantLease {
						grants = append(grants, grant{from: c, worker: worker, g: lg})
					}
				case 3, 4, 5: // deliver a batch under its original grant epoch
					if len(grants) == 0 {
						continue
					}
					gr := grants[g.R.Intn(len(grants))]
					var entries []Entry
					for _, k := range gr.g.Keys {
						if g.R.Bool(0.4) {
							entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1e6})
						}
					}
					// Deliver to a random incarnation — the wire does not
					// know who is live.
					target := live
					if len(old) > 0 && g.R.Bool(0.3) {
						target = old[g.R.Intn(len(old))]
					}
					before := ledgerLines()
					_, _, err := target.Results(gr.worker, gr.g.Lease, gr.g.Epoch, entries)
					if err != nil {
						// (a) any rejection — stale epoch, closed appender —
						// must have written nothing.
						if after := ledgerLines(); after != before {
							t.Fatalf("rejected batch moved the ledger %d -> %d lines (err %v)", before, after, err)
						}
						stale := gr.g.Epoch != live.Epoch() || target != live
						if !stale && len(entries) > 0 {
							t.Fatalf("live-epoch batch on the live coordinator rejected: %v", err)
						}
					}
				case 6: // heartbeat a random grant anywhere
					if len(grants) > 0 {
						gr := grants[g.R.Intn(len(grants))]
						_ = live.Heartbeat(gr.worker, gr.g.Lease, gr.g.Epoch)
					}
				case 7: // (b) invariants hold on the live incarnation
					checkInvariants(t, live)
				}
			}

			// Wind down: the live incarnation finishes the sweep; every
			// deposed incarnation is fully fenced.
			for i := 0; i < 10000; i++ {
				lg, err := live.Lease("drain")
				if err != nil {
					t.Fatal(err)
				}
				if lg.Status == GrantDone {
					break
				}
				if lg.Status == GrantWait {
					// Parts may be stuck behind live leases from this same
					// incarnation; take over to reset them.
					old = append(old, live)
					live = fresh()
					continue
				}
				var es []Entry
				for _, k := range lg.Keys {
					es = append(es, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1e6})
				}
				if _, _, err := live.Results("drain", lg.Lease, lg.Epoch, es); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, live)
			}
			for _, c := range old {
				if _, err := c.Lease("zombie"); !errors.Is(err, ErrStaleEpoch) {
					t.Fatalf("deposed epoch %d not fenced: %v", c.Epoch(), err)
				}
				_ = c.Close()
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			vals, sv, err := runner.SalvageStrict(nil, ledger)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != nkeys || sv.Lines != sv.Entries {
				t.Fatalf("final ledger %d entries / %d lines, want %d deduplicated", len(vals), sv.Lines, nkeys)
			}
		})
	}
}
