package cache

import (
	"testing"

	"github.com/uteda/gmap/internal/obs"
)

func TestBankedRouting(t *testing.T) {
	b, err := NewBanked(Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 128}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBanks() != 8 {
		t.Fatalf("NumBanks = %d", b.NumBanks())
	}
	// Consecutive lines hit consecutive banks.
	for i := 0; i < 16; i++ {
		if got := b.BankOf(uint64(i * 128)); got != i%8 {
			t.Errorf("BankOf(line %d) = %d, want %d", i, got, i%8)
		}
	}
	// Same line, different offset: same bank.
	if b.BankOf(0x100) != b.BankOf(0x17f) {
		t.Error("offsets within a line split across banks")
	}
}

func TestBankedAccessAggregation(t *testing.T) {
	b, err := NewBanked(Config{SizeBytes: 16384, Ways: 2, LineSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		b.Access(i*64, false)
	}
	for i := uint64(0); i < 64; i++ {
		if !b.Access(i*64, false).Hit {
			t.Fatalf("resident line %d missed", i)
		}
	}
	s := b.Stats()
	if s.Accesses != 128 || s.Misses != 64 || s.Hits != 64 {
		t.Errorf("aggregate stats = %+v", s)
	}
}

func TestBankedProbeAndFill(t *testing.T) {
	b, err := NewBanked(Config{SizeBytes: 16384, Ways: 2, LineSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Fill(0x1000)
	if !b.Probe(0x1000) {
		t.Error("filled line not present")
	}
	if b.Stats().PrefetchFills != 1 {
		t.Error("fill not counted")
	}
}

// TestBankedObsPublishesStats: the per-bank counters publish what each
// bank's Stats gained since attaching, so a dirty victim that a prefetch
// Fill evicts counts as a write-back, as it does in Stats.
func TestBankedObsPublishesStats(t *testing.T) {
	// Two banks of two 1-way sets: lines 0 and 4 share bank 0's set 0.
	b, err := NewBanked(Config{SizeBytes: 256, Ways: 1, LineSize: 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Access(1*64, false) // bank 1, before attaching: not published
	reg := obs.New()
	b.AttachObs(reg, "l2")
	b.Access(0, true) // bank 0: write miss, the line turns dirty
	if res := b.Fill(4 * 64); !res.Evicted || !res.EvictedDirty {
		t.Fatalf("fill = %+v, want it to evict the dirty line", res)
	}
	for i := 0; i < 2; i++ { // a second flush publishes nothing new
		b.FlushObs()
	}
	want := map[string]uint64{
		"l2.bank0.accesses": 1, "l2.bank0.misses": 1, "l2.bank0.writebacks": 1,
		"l2.bank1.accesses": 0, "l2.bank1.misses": 0, "l2.bank1.writebacks": 0,
	}
	for name, v := range want {
		if got := reg.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

func TestBankedValidation(t *testing.T) {
	if _, err := NewBanked(Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 128}, 3); err == nil {
		t.Error("non-power-of-two bank count accepted")
	}
	if _, err := NewBanked(Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 128}, 0); err == nil {
		t.Error("zero banks accepted")
	}
	// Per-bank slice ends up with a bad geometry.
	if _, err := NewBanked(Config{SizeBytes: 1024, Ways: 8, LineSize: 128}, 8); err == nil {
		t.Error("degenerate bank slice accepted")
	}
}

func TestBankedFullCapacityUsable(t *testing.T) {
	// Regression test: a working set equal to the total capacity must be
	// fully retained. With naive per-bank indexing the bank-selection
	// bits alias into the set index and only 1/numBanks of each slice's
	// sets are usable.
	b, err := NewBanked(Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 128}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nLines = 4096 // half the 8192-line capacity
	for i := uint64(0); i < nLines; i++ {
		b.Access(i*128, false)
	}
	for i := uint64(0); i < nLines; i++ {
		if !b.Access(i*128, false).Hit {
			t.Fatalf("resident line %d missed on second pass", i)
		}
	}
	s := b.Stats()
	if s.Misses != nLines {
		t.Errorf("misses = %d, want %d cold only", s.Misses, nLines)
	}
}

func TestBankedVictimAddressSpace(t *testing.T) {
	// Victim addresses must come back in the real address space: thrash
	// one bank and verify every evicted address was previously inserted.
	b, err := NewBanked(Config{SizeBytes: 16384, Ways: 2, LineSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	inserted := map[uint64]bool{}
	for i := uint64(0); i < 2000; i++ {
		addr := i * 64 * 4 // stay on bank 0
		res := b.Access(addr, true)
		inserted[addr] = true
		if res.Evicted {
			if !inserted[res.EvictedAddr] {
				t.Fatalf("victim %#x was never inserted", res.EvictedAddr)
			}
			if b.BankOf(res.EvictedAddr) != 0 {
				t.Fatalf("victim %#x reported from wrong bank", res.EvictedAddr)
			}
		}
	}
}

func TestBankedLineAddr(t *testing.T) {
	b, _ := NewBanked(Config{SizeBytes: 16384, Ways: 2, LineSize: 64}, 4)
	if b.LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr = %#x", b.LineAddr(0x1234))
	}
}
