package cache

import (
	"fmt"

	"github.com/uteda/gmap/internal/obs"
)

// Banked is an address-interleaved multi-bank cache, used for the shared
// L2 (Table 2: 1MB in 8 banks). Consecutive lines map to consecutive
// banks; each bank is an independent set-associative slice holding an
// equal share of the capacity.
type Banked struct {
	banks    []*Cache
	bankMask uint64
	bankBits uint
	lineBits uint
	// obs holds per-bank observability counters; nil when detached.
	obs []bankObs
}

// bankObs publishes one bank's Stats: demand pressure, miss traffic and
// write-back pressure toward the next level.
type bankObs struct {
	accesses   *obs.Counter
	misses     *obs.Counter
	writebacks *obs.Counter
	// published is the bank's Stats as the counters last received it.
	published Stats
}

// AttachObs registers per-bank counters ("<prefix>.bank<i>.accesses",
// ".misses", ".writebacks") with r. A nil registry leaves the cache
// detached; attaching never changes cache behaviour or Stats. The
// counters publish only the Stats gained after attaching.
func (b *Banked) AttachObs(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	b.obs = make([]bankObs, len(b.banks))
	for i, bank := range b.banks {
		name := fmt.Sprintf("%s.bank%d", prefix, i)
		b.obs[i] = bankObs{
			accesses:   r.Counter(name + ".accesses"),
			misses:     r.Counter(name + ".misses"),
			writebacks: r.Counter(name + ".writebacks"),
			published:  bank.Stats,
		}
	}
}

// FlushObs publishes what each bank's Stats gained since the last flush
// to the attached registry counters: demand accesses and misses, and
// every write-back, a prefetch fill's dirty victim included. No-op when
// detached; callers flush once per run (or before reading the
// registry), not per access.
func (b *Banked) FlushObs() {
	for i := range b.obs {
		o, s := &b.obs[i], b.banks[i].Stats
		o.accesses.Add(s.Accesses - o.published.Accesses)
		o.misses.Add(s.Misses - o.published.Misses)
		o.writebacks.Add(s.Writebacks - o.published.Writebacks)
		o.published = s
	}
}

// sliceAddr strips the bank-selection bits out of the line number so the
// slice indexes its full set array: without this, every address routed to
// a bank shares the low line bits and only 1/numBanks of the slice's sets
// are ever used.
func (b *Banked) sliceAddr(addr uint64) uint64 {
	line := addr >> b.lineBits
	return (line>>b.bankBits)<<b.lineBits | (addr & ((1 << b.lineBits) - 1))
}

// unsliceAddr maps a slice-space line address (e.g. a victim reported by
// the bank) back to the real address space.
func (b *Banked) unsliceAddr(addr uint64, bank int) uint64 {
	line := addr >> b.lineBits
	return (line<<b.bankBits | uint64(bank)) << b.lineBits
}

// NewBanked splits cfg.SizeBytes evenly over numBanks slices. numBanks
// must be a power of two.
func NewBanked(cfg Config, numBanks int) (*Banked, error) {
	if numBanks <= 0 || numBanks&(numBanks-1) != 0 {
		return nil, fmt.Errorf("cache: bank count %d not a positive power of two", numBanks)
	}
	if cfg.SizeBytes%numBanks != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by %d banks", cfg.SizeBytes, numBanks)
	}
	sliceCfg := cfg
	sliceCfg.SizeBytes = cfg.SizeBytes / numBanks
	b := &Banked{
		banks:    make([]*Cache, numBanks),
		bankMask: uint64(numBanks - 1),
	}
	for i := range b.banks {
		c, err := New(sliceCfg)
		if err != nil {
			return nil, fmt.Errorf("cache: bank %d: %w", i, err)
		}
		b.banks[i] = c
	}
	b.lineBits = b.banks[0].lineBits
	for n := numBanks; n > 1; n >>= 1 {
		b.bankBits++
	}
	return b, nil
}

// BankOf returns the bank index servicing addr.
func (b *Banked) BankOf(addr uint64) int {
	return int((addr >> b.lineBits) & b.bankMask)
}

// Access routes a demand access to its bank.
func (b *Banked) Access(addr uint64, write bool) Result {
	bank := b.BankOf(addr)
	res := b.banks[bank].Access(b.sliceAddr(addr), write)
	if res.Evicted {
		res.EvictedAddr = b.unsliceAddr(res.EvictedAddr, bank)
	}
	return res
}

// Probe routes a presence check to its bank.
func (b *Banked) Probe(addr uint64) bool {
	return b.banks[b.BankOf(addr)].Probe(b.sliceAddr(addr))
}

// Fill routes a prefetch fill to its bank.
func (b *Banked) Fill(addr uint64) Result {
	bank := b.BankOf(addr)
	res := b.banks[bank].Fill(b.sliceAddr(addr))
	if res.Evicted {
		res.EvictedAddr = b.unsliceAddr(res.EvictedAddr, bank)
	}
	return res
}

// NumBanks returns the bank count.
func (b *Banked) NumBanks() int { return len(b.banks) }

// LineAddr aligns addr to the line size.
func (b *Banked) LineAddr(addr uint64) uint64 { return b.banks[0].LineAddr(addr) }

// Stats returns the aggregate statistics over all banks.
func (b *Banked) Stats() Stats {
	var s Stats
	for _, bank := range b.banks {
		s.Add(bank.Stats)
	}
	return s
}
