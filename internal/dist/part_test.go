package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/runner"
)

// TestPartOfInvariants pins the partition function: in-range,
// deterministic across calls (and thus across processes), total — every
// key lands in exactly one part — and not degenerate on realistic
// job-hash keys.
func TestPartOfInvariants(t *testing.T) {
	g := proptest.New(41)
	for _, parts := range []int{1, 2, 4, 8, 31} {
		filled := make(map[int]int)
		for i := 0; i < 500; i++ {
			key := runner.JobKey("partof", fmt.Sprint(i), fmt.Sprint(g.R.Uint64()))
			p := PartOf(key, parts)
			if p < 0 || p >= parts {
				t.Fatalf("PartOf(%q, %d) = %d out of range", key, parts, p)
			}
			if q := PartOf(key, parts); q != p {
				t.Fatalf("PartOf(%q, %d) nondeterministic: %d then %d", key, parts, p, q)
			}
			filled[p]++
		}
		if parts > 1 && len(filled) < 2 {
			t.Errorf("parts=%d: 500 keys all landed in one part", parts)
		}
	}
	if PartOf("anything", 0) != 0 || PartOf("anything", -3) != 0 {
		t.Error("degenerate part counts must map to part 0")
	}
}

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// syntheticCoordinator builds a coordinator over a synthetic key
// universe with a fake clock, bypassing sweep enumeration.
func syntheticCoordinator(t *testing.T, nkeys int, o CoordinatorOptions) (*Coordinator, []string, *fakeClock) {
	t.Helper()
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = runner.JobKey("synthetic", fmt.Sprintf("job-%03d", i))
	}
	if o.Ledger == "" {
		o.Ledger = filepath.Join(t.TempDir(), "ledger.jsonl")
	}
	o.fillDefaults()
	spec := SweepSpec{Experiment: "synthetic"}
	c, err := newCoordinator(spec, keys, o)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	c.now = clk.now
	return c, keys, clk
}

// mustLease adapts the epoch-fenced Lease for single-incarnation
// tests, where the only error path is a fencing failure (covered
// explicitly by the failover suite).
func mustLease(t *testing.T, c *Coordinator, w string) LeaseGrant {
	t.Helper()
	g, err := c.Lease(w)
	if err != nil {
		t.Fatalf("lease for %s: %v", w, err)
	}
	return g
}

// payloadFor derives the deterministic result payload of a synthetic
// job, mirroring the determinism contract of real simulation points.
func payloadFor(key string) json.RawMessage {
	return json.RawMessage(`{"job":"` + key + `"}`)
}

// checkInvariants asserts the structural lease/partition invariants the
// package documentation promises, by direct inspection of coordinator
// state.
func checkInvariants(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every live lease maps to exactly one part that points back at it,
	// and no two live leases share a part — since parts partition the
	// key space, no job key is ever owned by two live leases.
	seenPart := make(map[int]string)
	for id, l := range c.leases {
		if prev, dup := seenPart[l.part]; dup {
			t.Fatalf("part %d held by two live leases: %s and %s", l.part, prev, id)
		}
		seenPart[l.part] = id
		if c.parts[l.part].leaseID != id {
			t.Fatalf("lease %s claims part %d but the part points at %q", id, l.part, c.parts[l.part].leaseID)
		}
	}
	for _, p := range c.parts {
		if p.leaseID != "" {
			if _, live := c.leases[p.leaseID]; !live {
				t.Fatalf("part %d points at dead lease %s", p.id, p.leaseID)
			}
		}
		// remaining ∪ done partitions the part's keys: disjoint cover.
		for _, k := range p.keys {
			_, isDone := c.done[k]
			isRemaining := p.remaining[k]
			if isDone == isRemaining {
				t.Fatalf("key %s: done=%v remaining=%v — must be exactly one", k, isDone, isRemaining)
			}
		}
	}
	// Done keys never leave; counts reconcile.
	rem := 0
	for _, p := range c.parts {
		rem += len(p.remaining)
	}
	if rem+len(c.done) != len(c.universe) {
		t.Fatalf("remaining %d + done %d != universe %d", rem, len(c.done), len(c.universe))
	}
}

// TestLeaseInvariantsProperty drives a random schedule of lease,
// heartbeat, result, complete and clock-advance operations against a
// synthetic universe and asserts the state-machine invariants after
// every step, then drains the sweep to completion and checks the ledger
// covers the universe exactly.
func TestLeaseInvariantsProperty(t *testing.T) {
	cases := proptest.N(t, 5, 25)
	for ci := 0; ci < cases; ci++ {
		ci := ci
		t.Run(fmt.Sprintf("seed=%d", ci), func(t *testing.T) {
			g := proptest.New(uint64(1000 + ci))
			ttl := 10 * time.Second
			c, _, clk := syntheticCoordinator(t, 20+g.R.Intn(40), CoordinatorOptions{
				Parts:    1 + g.R.Intn(6),
				LeaseTTL: ttl,
			})
			type grant struct {
				id   string
				keys []string
			}
			var grants []grant // every grant ever issued, live or not
			steps := 200 + g.R.Intn(200)
			for s := 0; s < steps; s++ {
				switch g.R.Intn(9) {
				case 0, 1: // request a lease
					lg := mustLease(t, c, fmt.Sprintf("w%d", g.R.Intn(4)))
					if lg.Status == GrantLease {
						grants = append(grants, grant{id: lg.Lease, keys: lg.Keys})
					}
				case 2: // heartbeat a random (possibly stale) grant
					if len(grants) > 0 {
						_ = c.Heartbeat(grants[g.R.Intn(len(grants))].id, c.Epoch())
					}
				case 3: // heartbeat a lease that never existed
					if err := c.Heartbeat("lease-bogus", c.Epoch()); err == nil {
						t.Fatal("bogus lease heartbeat accepted")
					}
				case 4, 5, 6: // deliver results for a random grant subset
					if len(grants) > 0 {
						gr := grants[g.R.Intn(len(grants))]
						var entries []Entry
						for _, k := range gr.keys {
							if g.R.Bool(0.3) {
								entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(1e6 + g.R.Intn(1e6))})
							}
						}
						if _, _, err := c.Results(gr.id, c.Epoch(), entries); err != nil {
							t.Fatalf("results rejected: %v", err)
						}
					}
				case 7: // time passes, possibly past the TTL
					clk.advance(time.Duration(g.R.Intn(int(ttl * 2))))
				case 8: // a snapshot is always consistent
					st := c.StatusSnapshot()
					if st.DoneJobs > st.TotalJobs || st.DoneParts > st.Parts {
						t.Fatalf("inconsistent snapshot %+v", st)
					}
				}
				checkInvariants(t, c)
			}

			// Drain: lease and immediately fulfill until done.
			for i := 0; i < 10000; i++ {
				lg := mustLease(t, c, "drain")
				if lg.Status == GrantDone {
					break
				}
				if lg.Status == GrantWait {
					clk.advance(ttl + time.Second) // expire stuck leases
					continue
				}
				var entries []Entry
				for _, k := range lg.Keys {
					entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1e6})
				}
				if _, _, err := c.Results(lg.Lease, lg.Epoch, entries); err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, c)
			}
			select {
			case <-c.Done():
			default:
				t.Fatalf("sweep not done after drain: %+v", c.StatusSnapshot())
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			vals, sv, err := runner.SalvageStrict(nil, c.o.Ledger)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != len(c.universe) {
				t.Fatalf("ledger holds %d entries, universe %d", len(vals), len(c.universe))
			}
			// Duplicates are deduplicated before the ledger: exactly one
			// line per key no matter how chaotic the schedule was.
			if sv.Lines != sv.Entries {
				t.Errorf("ledger has %d lines for %d entries — duplicate writes leaked", sv.Lines, sv.Entries)
			}
			for k := range c.universe {
				if string(vals[k]) != string(payloadFor(k)) {
					t.Errorf("key %s payload %s", k, vals[k])
				}
			}
		})
	}
}

// TestStealIdempotence scripts the straggler dance: worker A leases the
// only part and delivers half of it, stalls long past the straggler
// threshold (while heartbeating, so the lease never expires), B steals
// the remainder, A's late results land harmlessly and end B's lease, and
// the merged ledger is exactly one line per key.
func TestStealIdempotence(t *testing.T) {
	ttl := 10 * time.Second
	c, keys, clk := syntheticCoordinator(t, 12, CoordinatorOptions{Parts: 1, LeaseTTL: ttl})

	a := mustLease(t, c, "A")
	if a.Status != GrantLease || len(a.Keys) != len(keys) {
		t.Fatalf("grant A = %+v", a)
	}
	// A delivers half, establishing a mean job time of ~1ms.
	half := a.Keys[:len(a.Keys)/2]
	var entries []Entry
	for _, k := range half {
		entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(time.Millisecond)})
	}
	if _, _, err := c.Results(a.Lease, a.Epoch, entries); err != nil {
		t.Fatal(err)
	}

	// B asks while A is healthy: every part is leased, so B waits; the
	// steal threshold (max(TTL, 8×1ms) = TTL) hasn't passed.
	if lg := mustLease(t, c, "B"); lg.Status != GrantWait {
		t.Fatalf("B granted %+v while A healthy", lg)
	}

	// A keeps heartbeating but stops delivering: after > TTL of silence
	// on the results channel, B's next request steals the part.
	for i := 0; i < 4; i++ {
		clk.advance(ttl / 2)
		if err := c.Heartbeat(a.Lease, a.Epoch); err != nil {
			t.Fatalf("A heartbeat while healthy: %v", err)
		}
		checkInvariants(t, c)
	}
	b := mustLease(t, c, "B")
	if b.Status != GrantLease {
		t.Fatalf("B not granted after stall: %+v", b)
	}
	if len(b.Keys) != len(keys)-len(half) {
		t.Fatalf("B leased %d keys, want the %d-key remainder", len(b.Keys), len(keys)-len(half))
	}
	st := c.StatusSnapshot()
	if st.Stolen != 1 {
		t.Fatalf("stolen = %d, want 1", st.Stolen)
	}
	if err := c.Heartbeat(a.Lease, a.Epoch); err == nil {
		t.Fatal("A's stolen lease still heartbeats")
	}
	checkInvariants(t, c)

	// A finishes anyway and reports late: duplicates for the half it
	// already sent, late-but-first results for the rest. All accepted,
	// nothing double-written.
	var all []Entry
	for _, k := range a.Keys {
		all = append(all, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(time.Millisecond)})
	}
	acc, dup, err := c.Results(a.Lease, a.Epoch, all)
	if err != nil {
		t.Fatal(err)
	}
	if dup != len(half) || acc != len(keys)-len(half) {
		t.Fatalf("late delivery: accepted %d dup %d, want %d/%d", acc, dup, len(keys)-len(half), len(half))
	}

	// The part was done the moment A's late results covered it, and
	// its last key ended B's lease.
	select {
	case <-c.Done():
	default:
		t.Fatal("sweep not done after late completion")
	}
	if err := c.Heartbeat(b.Lease, b.Epoch); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("B heartbeat after the part's last key: %v, want ErrLeaseGone", err)
	}
	// B re-delivering its (now duplicate) remainder is still harmless.
	var bs []Entry
	for _, k := range b.Keys {
		bs = append(bs, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(time.Millisecond)})
	}
	if acc, dup, err := c.Results(b.Lease, b.Epoch, bs); err != nil || acc != 0 || dup != len(bs) {
		t.Fatalf("B redelivery: acc %d dup %d err %v", acc, dup, err)
	}
	checkInvariants(t, c)

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, sv, err := runner.SalvageStrict(nil, c.o.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Entries != len(keys) || sv.Lines != len(keys) {
		t.Fatalf("ledger %d entries / %d lines, want %d/%d", sv.Entries, sv.Lines, len(keys), len(keys))
	}
	if mustLease(t, c, "C").Status != GrantDone {
		t.Error("post-completion lease not answered done")
	}
}

// TestDrainWaitsForLiveWorkers: a finished coordinator drains until
// every worker seen within the last lease TTL has been told the sweep is
// done; a worker silent for a TTL no longer holds the drain.
func TestDrainWaitsForLiveWorkers(t *testing.T) {
	ttl := 10 * time.Second
	c, keys, clk := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1, LeaseTTL: ttl})
	a := mustLease(t, c, "A")
	if lg := mustLease(t, c, "B"); lg.Status != GrantWait {
		t.Fatalf("B granted %+v while A holds the only part", lg)
	}
	var entries []Entry
	for _, k := range keys {
		entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1})
	}
	if _, _, err := c.Results(a.Lease, a.Epoch, entries); err != nil {
		t.Fatal(err)
	}
	if c.drained() {
		t.Fatal("drained before any worker was told the sweep is done")
	}
	if lg := mustLease(t, c, "A"); lg.Status != GrantDone {
		t.Fatalf("A after the last result: %+v, want done", lg)
	}
	if c.drained() {
		t.Fatal("drained while B, waiting, has not been told the sweep is done")
	}
	clk.advance(ttl)
	if !c.drained() {
		t.Fatal("B, silent for a lease TTL, still holds the drain")
	}
	c.Drain(context.Background()) // returns at once: nothing to wait for
}
