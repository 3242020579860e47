package dram

import (
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/rng"
)

func mustController(t testing.TB, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func simpleCfg() Config {
	return Config{
		Channels: 1, RanksPerChannel: 1, BanksPerRank: 2,
		RowBytes: 1024, TxBytes: 128, BusBytes: 8,
		TRCD: 10, TCAS: 10, TRP: 10, TRAS: 25,
		Sched: FRFCFS, Mapping: RoBaRaCoCh,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultGDDR3().Validate(); err != nil {
		t.Errorf("GDDR3 default invalid: %v", err)
	}
	if err := GDDR5(8, 8, ChRaBaRoCo).Validate(); err != nil {
		t.Errorf("GDDR5 invalid: %v", err)
	}
	bad := simpleCfg()
	bad.Channels = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-pow2 channels accepted")
	}
	bad = simpleCfg()
	bad.RowBytes = 64 // smaller than TxBytes
	if err := bad.Validate(); err == nil {
		t.Error("row smaller than transaction accepted")
	}
	bad = simpleCfg()
	bad.TRCD = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero timing accepted")
	}
}

func TestDecomposeRoundTripDistinct(t *testing.T) {
	// Distinct lines must map to distinct coordinates.
	f := func(seed uint64) bool {
		cfg := DefaultGDDR3()
		r := rng.New(seed)
		seen := make(map[Coord]uint64)
		for i := 0; i < 500; i++ {
			addr := r.Uint64n(1<<30) &^ uint64(cfg.TxBytes-1)
			co := cfg.Decompose(addr)
			if prev, dup := seen[co]; dup && prev != addr {
				return false
			}
			seen[co] = addr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMappingChannelInterleaving(t *testing.T) {
	cfg := DefaultGDDR3() // RoBaRaCoCh: channel in lowest line bits
	for i := 0; i < 16; i++ {
		co := cfg.Decompose(uint64(i * cfg.TxBytes))
		if co.Channel != i%cfg.Channels {
			t.Errorf("line %d -> channel %d, want %d", i, co.Channel, i%cfg.Channels)
		}
	}
	cfg.Mapping = ChRaBaRoCo // column in lowest bits: consecutive lines same channel
	first := cfg.Decompose(0)
	for i := 1; i < cfg.RowBytes/cfg.TxBytes; i++ {
		co := cfg.Decompose(uint64(i * cfg.TxBytes))
		if co.Channel != first.Channel || co.Row != first.Row {
			t.Errorf("ChRaBaRoCo: line %d left row/channel: %+v vs %+v", i, co, first)
		}
		if co.Col != i {
			t.Errorf("ChRaBaRoCo: line %d column = %d", i, co.Col)
		}
	}
}

func TestRowHitTiming(t *testing.T) {
	c := mustController(t, simpleCfg())
	// Two reads to the same row, same bank, back to back.
	c.Enqueue(0, false, 0, 0)
	c.Enqueue(128, false, 0, 1)
	comps := c.Drain()
	if len(comps) != 2 {
		t.Fatalf("%d completions", len(comps))
	}
	// First: closed row -> tRCD + tCAS + burst = 10+10+8 = 28.
	if comps[0].Done != 28 || comps[0].RowHit {
		t.Errorf("first completion = %+v, want done 28, miss", comps[0])
	}
	// Second: row hit, but bus serialization dominates: data start >=
	// busFree(28); done = 28+8 = 36... row hit issues at bank ready (20)
	// + tCAS = 30; bus free at 28 -> dataStart 30, done 38.
	if !comps[1].RowHit {
		t.Errorf("second access missed open row: %+v", comps[1])
	}
	if comps[1].Done <= comps[0].Done {
		t.Errorf("bus not serialized: %+v", comps)
	}
}

func TestRowConflictSlower(t *testing.T) {
	cfg := simpleCfg()
	cfg.Mapping = ChRaBaRoCo // keep everything in one bank
	hitC := mustController(t, cfg)
	hitC.Enqueue(0, false, 0, 0)
	hitC.Enqueue(128, false, 0, 1) // same row
	hits := hitC.Drain()

	confC := mustController(t, cfg)
	confC.Enqueue(0, false, 0, 0)
	confC.Enqueue(1<<22, false, 0, 1) // same bank, different row
	confs := confC.Drain()

	if confs[1].Done <= hits[1].Done {
		t.Errorf("row conflict (%d) not slower than row hit (%d)",
			confs[1].Done, hits[1].Done)
	}
	if confC.Stats.RowConflicts != 1 {
		t.Errorf("RowConflicts = %d, want 1", confC.Stats.RowConflicts)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := simpleCfg()
	cfg.Mapping = ChRaBaRoCo
	c := mustController(t, cfg)
	const idConflict, idHit = 1, 2
	c.Enqueue(0, false, 0, 0)                // opens row 0
	_ = c.AdvanceTo(100)                     // service it
	c.Enqueue(1<<22, false, 100, idConflict) // different row
	c.Enqueue(256, false, 100, idHit)        // row 0 again
	comps := c.Drain()
	if len(comps) != 2 {
		t.Fatalf("%d completions", len(comps))
	}
	if comps[0].ID != idHit || comps[1].ID != idConflict {
		t.Errorf("FR-FCFS order = %v, want row hit (%d) first", comps, idHit)
	}
	if !comps[0].RowHit {
		t.Error("preferred request was not a row hit")
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	cfg := simpleCfg()
	cfg.Mapping = ChRaBaRoCo
	cfg.Sched = FCFS
	c := mustController(t, cfg)
	const idConflict = 1
	c.Enqueue(0, false, 0, 0)
	_ = c.AdvanceTo(100)
	c.Enqueue(1<<22, false, 100, idConflict)
	c.Enqueue(256, false, 100, 2) // would be a row hit, must wait
	comps := c.Drain()
	if comps[0].ID != idConflict {
		t.Errorf("FCFS reordered: first completion %+v", comps[0])
	}
}

func TestFRFCFSImprovesRBL(t *testing.T) {
	// Interleave two row streams on one bank: FR-FCFS batches row hits,
	// FCFS ping-pongs. Compare RBL.
	run := func(p SchedPolicy) float64 {
		cfg := simpleCfg()
		cfg.Mapping = ChRaBaRoCo
		cfg.Sched = p
		c := mustController(t, cfg)
		for i := 0; i < 32; i++ {
			c.Enqueue(uint64(i%8)*128, false, 0, uint64(2*i))         // row 0
			c.Enqueue(1<<22+uint64(i%8)*128, false, 0, uint64(2*i+1)) // row N
		}
		c.Drain()
		return c.Stats.RowBufferLocality()
	}
	fr, fc := run(FRFCFS), run(FCFS)
	if fr <= fc {
		t.Errorf("FR-FCFS RBL (%.3f) not better than FCFS (%.3f)", fr, fc)
	}
	if fr < 0.8 {
		t.Errorf("FR-FCFS RBL = %.3f, expected near 1 for two batchable streams", fr)
	}
}

func TestWiderBusFaster(t *testing.T) {
	run := func(busBytes int) uint64 {
		cfg := simpleCfg()
		cfg.BusBytes = busBytes
		c := mustController(t, cfg)
		for i := 0; i < 64; i++ {
			c.Enqueue(uint64(i)*128, false, 0, uint64(i))
		}
		comps := c.Drain()
		var last uint64
		for _, co := range comps {
			if co.Done > last {
				last = co.Done
			}
		}
		return last
	}
	if narrow, wide := run(4), run(16); wide >= narrow {
		t.Errorf("16B bus (%d cycles) not faster than 4B bus (%d cycles)", wide, narrow)
	}
}

func TestMoreChannelsFaster(t *testing.T) {
	run := func(channels int) uint64 {
		cfg := DefaultGDDR3()
		cfg.Channels = channels
		c := mustController(t, cfg)
		for i := 0; i < 256; i++ {
			c.Enqueue(uint64(i)*128, false, 0, uint64(i))
		}
		comps := c.Drain()
		var last uint64
		for _, co := range comps {
			if co.Done > last {
				last = co.Done
			}
		}
		return last
	}
	if one, eight := run(1), run(8); eight >= one {
		t.Errorf("8 channels (%d) not faster than 1 (%d)", eight, one)
	}
}

func TestQueueLengthSampling(t *testing.T) {
	c := mustController(t, simpleCfg())
	// Burst of simultaneous arrivals: queue builds up.
	for i := 0; i < 16; i++ {
		c.Enqueue(uint64(i)*4096, false, 0, uint64(i))
	}
	c.Drain()
	if c.Stats.AvgQueueLen() <= 1 {
		t.Errorf("AvgQueueLen = %.2f for a 16-deep burst", c.Stats.AvgQueueLen())
	}
	// Widely spaced arrivals on a fresh controller: queue stays empty.
	c = mustController(t, simpleCfg())
	for i := 0; i < 16; i++ {
		c.Enqueue(uint64(i)*4096, false, uint64(i)*10000, uint64(i))
		c.AdvanceTo(uint64(i) * 10000)
	}
	c.Drain()
	if c.Stats.AvgQueueLen() != 0 {
		t.Errorf("spaced arrivals AvgQueueLen = %.2f, want 0", c.Stats.AvgQueueLen())
	}
}

func TestLatencyAccounting(t *testing.T) {
	c := mustController(t, simpleCfg())
	c.Enqueue(0, false, 0, 0)
	c.Enqueue(1<<20, true, 0, 1)
	c.Drain()
	if c.Stats.Reads != 1 || c.Stats.Writes != 1 {
		t.Fatalf("counts = %+v", c.Stats)
	}
	if c.Stats.AvgReadLatency() <= 0 || c.Stats.AvgWriteLatency() <= 0 {
		t.Error("latencies not recorded")
	}
}

func TestAdvanceToDeliversIncrementally(t *testing.T) {
	c := mustController(t, simpleCfg())
	c.Enqueue(0, false, 0, 0)
	if got := c.AdvanceTo(5); len(got) != 0 {
		t.Errorf("completion before service finished: %v", got)
	}
	if c.InFlight() != 1 {
		t.Errorf("InFlight = %d", c.InFlight())
	}
	got := c.AdvanceTo(100)
	if len(got) != 1 {
		t.Fatalf("completion not delivered: %v", got)
	}
	if c.InFlight() != 0 {
		t.Errorf("InFlight after delivery = %d", c.InFlight())
	}
	// Idempotent: nothing more to deliver.
	if got := c.AdvanceTo(200); len(got) != 0 {
		t.Errorf("duplicate delivery: %v", got)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultGDDR3()
		c, err := NewController(cfg)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		const n = 300
		for i := 0; i < n; i++ {
			c.Enqueue(r.Uint64n(1<<28), r.Bool(0.3), uint64(i)*3, uint64(i))
		}
		comps := c.Drain()
		if len(comps) != n || c.InFlight() != 0 {
			return false
		}
		// Every completion after its arrival.
		for _, co := range comps {
			if co.Done <= co.Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var s Stats
	if s.RowBufferLocality() != 0 || s.AvgQueueLen() != 0 ||
		s.AvgReadLatency() != 0 || s.AvgWriteLatency() != 0 {
		t.Error("zero stats not 0")
	}
}

func TestStrings(t *testing.T) {
	if RoBaRaCoCh.String() != "RoBaRaCoCh" || ChRaBaRoCo.String() != "ChRaBaRoCo" {
		t.Error("mapping strings wrong")
	}
	if FRFCFS.String() != "fr-fcfs" || FCFS.String() != "fcfs" {
		t.Error("policy strings wrong")
	}
}

func BenchmarkController(b *testing.B) {
	c := mustController(b, DefaultGDDR3())
	r := rng.New(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 28)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Enqueue(addrs[i&(len(addrs)-1)], false, uint64(i), uint64(i))
		if i&63 == 0 {
			c.AdvanceTo(uint64(i))
		}
	}
	c.Drain()
}

// BenchmarkControllerPoll is the simulator's access pattern: a deep queue
// advanced with AdvanceInto on every cycle, each completion replaced by a
// fresh request, so most polls find the channel's bus still busy. One op
// is one cycle.
func BenchmarkControllerPoll(b *testing.B) {
	c := mustController(b, DefaultGDDR3())
	r := rng.New(1)
	const depth = 256
	for i := 0; i < depth; i++ {
		c.Enqueue(r.Uint64n(1<<28), false, 0, uint64(i))
	}
	var buf []Completion
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		buf = c.AdvanceInto(now, buf[:0])
		for range buf {
			c.Enqueue(r.Uint64n(1<<28), false, now, 0)
		}
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := simpleCfg()
	cfg.TREFI = 100
	cfg.TRFC = 20
	c := mustController(t, cfg)
	// Open row 0 and hit it once before the refresh boundary.
	c.Enqueue(0, false, 0, 0)
	c.Enqueue(128, false, 0, 1)
	if got := c.AdvanceTo(90); len(got) != 2 {
		t.Fatalf("pre-refresh completions = %d", len(got))
	}
	if c.Stats.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1 before refresh", c.Stats.RowHits)
	}
	// A request after tREFI must see the row closed again (activation, not
	// a hit) and be delayed past the tRFC window.
	c.Enqueue(256, false, 150, 2)
	comps := c.Drain()
	if len(comps) != 1 {
		t.Fatalf("post-refresh completions = %d", len(comps))
	}
	if comps[0].RowHit {
		t.Error("row survived an all-bank refresh")
	}
	if c.Stats.Refreshes == 0 {
		t.Error("no refresh counted")
	}
}

func TestRefreshDelaysService(t *testing.T) {
	base := simpleCfg()
	withRef := base
	withRef.TREFI = 50
	withRef.TRFC = 40
	run := func(cfg Config) uint64 {
		c := mustController(t, cfg)
		var last uint64
		for i := 0; i < 64; i++ {
			c.Enqueue(uint64(i)*4096, false, uint64(i)*10, uint64(i))
		}
		for _, co := range c.Drain() {
			if co.Done > last {
				last = co.Done
			}
		}
		return last
	}
	if plain, ref := run(base), run(withRef); ref <= plain {
		t.Errorf("refresh run (%d) not slower than refresh-free (%d)", ref, plain)
	}
}

func TestRefreshConfigValidation(t *testing.T) {
	bad := simpleCfg()
	bad.TREFI = 100
	bad.TRFC = 0
	if err := bad.Validate(); err == nil {
		t.Error("tREFI without tRFC accepted")
	}
	bad.TREFI = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative tREFI accepted")
	}
}

// TestAdvanceIntoMatchesAdvanceTo: the caller-owned-buffer batch API must
// deliver exactly the per-step completions of AdvanceTo — same order,
// same contents — while reusing the passed buffer across steps.
func TestAdvanceIntoMatchesAdvanceTo(t *testing.T) {
	mk := func() *Controller { return mustController(t, simpleCfg()) }
	enq := func(c *Controller, step uint64) {
		// A mix of same-row, cross-bank and write traffic per step.
		c.Enqueue(step*128, false, step*7, 2*step)
		c.Enqueue(step*4096+128, step%3 == 0, step*7, 2*step+1)
	}
	a, b := mk(), mk()
	var buf []Completion
	for step := uint64(0); step < 50; step++ {
		enq(a, step)
		enq(b, step)
		now := step * 11
		want := a.AdvanceTo(now)
		buf = b.AdvanceInto(now, buf[:0])
		if len(want) != len(buf) {
			t.Fatalf("step %d: AdvanceInto returned %d completions, AdvanceTo %d", step, len(buf), len(want))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("step %d completion %d: %+v vs %+v", step, i, buf[i], want[i])
			}
		}
	}
	wantRest := a.Drain()
	gotRest := b.Drain()
	if len(wantRest) != len(gotRest) {
		t.Fatalf("drain length: %d vs %d", len(gotRest), len(wantRest))
	}
	for i := range wantRest {
		if wantRest[i] != gotRest[i] {
			t.Fatalf("drain completion %d: %+v vs %+v", i, gotRest[i], wantRest[i])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged:\n AdvanceTo:   %+v\n AdvanceInto: %+v", a.Stats, b.Stats)
	}
}

// TestUndrainedChannelKeepsBoundedBuffer: a channel advanced every time
// while its newest request is still in flight never empties its
// completion FIFO, yet the FIFO's buffer must not grow with the number
// of completions it has delivered.
func TestUndrainedChannelKeepsBoundedBuffer(t *testing.T) {
	c := mustController(t, simpleCfg())
	const steps = 10000
	var buf []Completion
	delivered := 0
	for s := uint64(0); s < steps; s++ {
		now := s * 100
		c.Enqueue(s%8*128, false, now, s)
		buf = c.AdvanceInto(now, buf[:0])
		delivered += len(buf)
		ch := &c.channels[0]
		if backlog := len(ch.done) - ch.head; backlog != 1 {
			t.Fatalf("step %d: %d completions undelivered, want the newest one", s, backlog)
		}
		if cap(ch.done) > 8 {
			t.Fatalf("step %d: completion buffer grew to %d entries for a backlog of 1", s, cap(ch.done))
		}
	}
	if delivered != steps-1 {
		t.Fatalf("delivered %d completions, want %d", delivered, steps-1)
	}
}
