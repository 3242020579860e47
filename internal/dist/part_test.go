package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
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
// heartbeat, result and clock-advance operations against a
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
				id, worker string
				keys       []string
			}
			var grants []grant // every grant ever issued, live or not
			steps := 200 + g.R.Intn(200)
			for s := 0; s < steps; s++ {
				switch g.R.Intn(9) {
				case 0, 1: // request a lease
					worker := fmt.Sprintf("w%d", g.R.Intn(4))
					lg := mustLease(t, c, worker)
					if lg.Status == GrantLease {
						grants = append(grants, grant{id: lg.Lease, worker: worker, keys: lg.Keys})
					}
				case 2: // heartbeat a random (possibly stale) grant
					if len(grants) > 0 {
						gr := grants[g.R.Intn(len(grants))]
						_ = c.Heartbeat(gr.worker, gr.id, c.Epoch())
					}
				case 3: // heartbeat a lease that never existed
					if err := c.Heartbeat("w0", "lease-bogus", c.Epoch()); err == nil {
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
						if _, _, err := c.Results(gr.worker, gr.id, c.Epoch(), entries); err != nil {
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
				if _, _, err := c.Results("drain", lg.Lease, lg.Epoch, entries); err != nil {
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

// TestExpiryIdempotence scripts a holder going silent: worker A leases
// the only part, delivers half of it and stops heartbeating. B waits
// while A's lease lives and leases the remainder once A has been silent
// for a TTL. A's late results land harmlessly — duplicates for the half
// it already sent, late results for the rest, the last of which ends
// B's lease — and the merged ledger is exactly one line per key.
func TestExpiryIdempotence(t *testing.T) {
	ttl := 10 * time.Second
	c, keys, clk := syntheticCoordinator(t, 12, CoordinatorOptions{Parts: 1, LeaseTTL: ttl})
	deliver := func(worker string, g LeaseGrant, keys []string) (acc, dup int, err error) {
		var entries []Entry
		for _, k := range keys {
			entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(time.Millisecond)})
		}
		return c.Results(worker, g.Lease, g.Epoch, entries)
	}

	a := mustLease(t, c, "A")
	if a.Status != GrantLease || len(a.Keys) != len(keys) {
		t.Fatalf("grant A = %+v", a)
	}
	half := a.Keys[:len(a.Keys)/2]
	if _, _, err := deliver("A", a, half); err != nil {
		t.Fatal(err)
	}

	// A goes silent. For one TTL its lease lives, and B waits.
	clk.advance(ttl)
	if lg := mustLease(t, c, "B"); lg.Status != GrantWait {
		t.Fatalf("B granted %+v while A's lease lives", lg)
	}
	clk.advance(time.Second)
	b := mustLease(t, c, "B")
	if b.Status != GrantLease || len(b.Keys) != len(keys)-len(half) {
		t.Fatalf("B after A's silence: %+v, want the %d-key remainder", b, len(keys)-len(half))
	}
	if st := c.StatusSnapshot(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if err := c.Heartbeat("A", a.Lease, a.Epoch); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("A's expired lease heartbeats: %v, want ErrLeaseGone", err)
	}
	checkInvariants(t, c)

	// A finishes anyway and reports late: duplicates for the half it
	// already sent, late-but-first results for the rest. All accepted,
	// nothing double-written.
	acc, dup, err := deliver("A", a, a.Keys)
	if err != nil {
		t.Fatal(err)
	}
	if dup != len(half) || acc != len(keys)-len(half) {
		t.Fatalf("late delivery: accepted %d dup %d, want %d/%d", acc, dup, len(keys)-len(half), len(half))
	}
	if st := c.StatusSnapshot(); st.Late != uint64(acc) {
		t.Errorf("late results = %d, want %d", st.Late, acc)
	}

	// The part was done the moment A's late results covered it, and
	// its last key ended B's lease.
	select {
	case <-c.Done():
	default:
		t.Fatal("sweep not done after late completion")
	}
	if err := c.Heartbeat("B", b.Lease, b.Epoch); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("B heartbeat after the part's last key: %v, want ErrLeaseGone", err)
	}
	// B re-delivering its (now duplicate) remainder is still harmless.
	if acc, dup, err := deliver("B", b, b.Keys); err != nil || acc != 0 || dup != len(b.Keys) {
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

// TestSilentHolderKeepsLease: a holder that heartbeats keeps its part
// however long it goes without delivering a result. B, asking all the
// while, waits.
func TestSilentHolderKeepsLease(t *testing.T) {
	ttl := 10 * time.Second
	c, _, clk := syntheticCoordinator(t, 12, CoordinatorOptions{Parts: 1, LeaseTTL: ttl})
	a := mustLease(t, c, "A")
	first := a.Keys[0]
	if _, _, err := c.Results("A", a.Lease, a.Epoch, []Entry{{Key: first, Value: payloadFor(first), ElapsedNS: int64(time.Millisecond)}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		clk.advance(ttl / 2)
		if err := c.Heartbeat("A", a.Lease, a.Epoch); err != nil {
			t.Fatalf("A's heartbeat after %v without a result: %v", time.Duration(i+1)*ttl/2, err)
		}
		if lg := mustLease(t, c, "B"); lg.Status != GrantWait {
			t.Fatalf("B granted %+v after A went %v without a result", lg, time.Duration(i+1)*ttl/2)
		}
		checkInvariants(t, c)
	}
	if st := c.StatusSnapshot(); st.Granted != 1 || st.Expired != 0 || st.Partitions[0].Worker != "A" {
		t.Errorf("after 50 TTLs of heartbeats: %+v, want A's one lease still live", st)
	}
}

// TestDrainWaitsForLiveWorkers: a finished coordinator drains until
// every worker seen within the last lease TTL has been told the sweep is
// done; a worker silent for a TTL no longer holds the drain. A
// restarted coordinator also waits for its predecessor's workers, which
// it has seen only through requests fenced to the old epoch.
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
	if _, _, err := c.Results("A", a.Lease, a.Epoch, entries); err != nil {
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

	// Restart: w1 holds an epoch-1 lease when epoch 2 claims the ledger.
	// Its heartbeat names it and is fenced; w2 then finishes the sweep.
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	c1, _, _ := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1, LeaseTTL: ttl, Ledger: ledger})
	g1 := mustLease(t, c1, "w1")
	c2, _, _ := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1, LeaseTTL: ttl, Ledger: ledger})
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"worker":"w1","lease":%q,"epoch":%d}`, g1.Lease, g1.Epoch)
	c2.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/heartbeat", strings.NewReader(body)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("epoch-1 heartbeat at epoch 2: %d %s, want 409", rec.Code, rec.Body)
	}
	g2 := mustLease(t, c2, "w2")
	entries = nil
	for _, k := range g2.Keys {
		entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1})
	}
	if _, _, err := c2.Results("w2", g2.Lease, g2.Epoch, entries); err != nil {
		t.Fatal(err)
	}
	if lg := mustLease(t, c2, "w2"); lg.Status != GrantDone {
		t.Fatalf("w2 after the last result: %+v, want done", lg)
	}
	if c2.drained() {
		t.Fatal("drained while w1, seen only fenced to epoch 1, has not been told the sweep is done")
	}
	if lg := mustLease(t, c2, "w1"); lg.Status != GrantDone {
		t.Fatalf("w1 at epoch 2: %+v, want done", lg)
	}
	if !c2.drained() {
		t.Fatal("not drained once every worker has been told the sweep is done")
	}
	_ = c1.Close()
	_ = c2.Close()
}
