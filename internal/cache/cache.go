// Package cache implements the set-associative cache model used for both
// levels of the simulated GPU memory hierarchy. It is the CMP$im-style
// component of the paper's validation simulator: demand accesses, optional
// prefetch fills with usefulness tracking, write-back/write-allocate
// semantics with dirty-victim reporting, pluggable replacement, and an
// address-interleaved banked wrapper for the shared L2. The MSHR file
// that bounds a core's outstanding misses lives with the flights it
// tracks, in internal/memsim.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/uteda/gmap/internal/rng"
)

// ReplPolicy selects the replacement policy of a cache.
type ReplPolicy int

// Supported replacement policies.
const (
	LRU ReplPolicy = iota
	FIFO
	Random
)

// String returns "lru", "fifo" or "random".
func (p ReplPolicy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return "lru"
	}
}

// WritePolicy selects how stores interact with the cache.
type WritePolicy int

// Supported write policies.
const (
	// WriteBackAllocate (the default) allocates on write misses and marks
	// written lines dirty; victims report EvictedDirty for write-back.
	WriteBackAllocate WritePolicy = iota
	// WriteThroughNoAllocate propagates every store below immediately
	// (Result.WroteThrough) and does not allocate on write misses — the
	// policy of Fermi's L1 for global stores.
	WriteThroughNoAllocate
)

// String returns "write-back" or "write-through".
func (p WritePolicy) String() string {
	if p == WriteThroughNoAllocate {
		return "write-through"
	}
	return "write-back"
}

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity; it must equal Sets*Ways*LineSize
	// with a power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineSize is the block size in bytes (power of two).
	LineSize int
	// Policy is the replacement policy (default LRU).
	Policy ReplPolicy
	// Writes is the write policy (default write-back write-allocate).
	Writes WritePolicy
	// Seed drives the Random policy.
	Seed uint64
}

// Validate checks the configuration and returns the derived set count.
func (c Config) Validate() (sets int, err error) {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return 0, fmt.Errorf("cache: line size %d not a positive power of two", c.LineSize)
	}
	if c.Ways <= 0 {
		return 0, fmt.Errorf("cache: associativity %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Ways*c.LineSize) != 0 {
		return 0, fmt.Errorf("cache: size %d not divisible by ways*line = %d", c.SizeBytes, c.Ways*c.LineSize)
	}
	sets = c.SizeBytes / (c.Ways * c.LineSize)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache: derived set count %d not a power of two", sets)
	}
	return sets, nil
}

// String renders the geometry, e.g. "16KB 4-way 128B".
func (c Config) String() string {
	return fmt.Sprintf("%dKB %d-way %dB", c.SizeBytes/1024, c.Ways, c.LineSize)
}

// Stats accumulates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Reads      uint64
	Writes     uint64
	Evictions  uint64
	Writebacks uint64
	// PrefetchFills counts lines installed by a prefetcher;
	// PrefetchUseful counts demand hits on such lines before eviction;
	// PrefetchLate is unused by Cache itself but aggregated by hierarchies.
	PrefetchFills  uint64
	PrefetchUseful uint64
}

// MissRate returns Misses/Accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PrefetchAccuracy returns PrefetchUseful/PrefetchFills, or 0.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchFills)
}

// Add accumulates other into s (used to merge per-bank stats).
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.PrefetchFills += other.PrefetchFills
	s.PrefetchUseful += other.PrefetchUseful
}

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool // installed by prefetcher, no demand hit yet
	lastUse  uint64
	filledAt uint64
}

// Result reports the outcome of one access or fill.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// WroteThrough is true when a store must be propagated to the next
	// level immediately (write-through policy).
	WroteThrough bool
	// PrefetchHit is true when the hit consumed a prefetched line for the
	// first time.
	PrefetchHit bool
	// Evicted reports a victim was displaced; EvictedAddr is its line
	// address and EvictedDirty whether it needs writing back.
	Evicted      bool
	EvictedAddr  uint64
	EvictedDirty bool
}

// Cache is a single set-associative cache. It is not safe for concurrent
// use; the simulator drives each cache from one goroutine.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	tick     uint64
	rnd      *rng.Rand
	// Stats is exported for read-out; callers must not mutate it.
	Stats Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	nSets, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, nSets),
		setMask:  uint64(nSets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		rnd:      rng.New(cfg.Seed ^ 0xcac4e),
	}
	backing := make([]line, nSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways:cfg.Ways], backing[cfg.Ways:]
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns addr aligned down to the cache's line size.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) setOf(addr uint64) []line {
	return c.sets[(addr>>c.lineBits)&c.setMask]
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.lineBits >> uint(bits.TrailingZeros(uint(len(c.sets))))
}

// Access performs a demand access: on hit it updates recency; on miss it
// fills the line, possibly evicting a victim. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	writeThrough := c.cfg.Writes == WriteThroughNoAllocate
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			res := Result{Hit: true}
			if set[i].prefetch {
				set[i].prefetch = false
				c.Stats.PrefetchUseful++
				res.PrefetchHit = true
			}
			set[i].lastUse = c.tick
			if write {
				if writeThrough {
					res.WroteThrough = true
					c.Stats.Writebacks++
				} else {
					set[i].dirty = true
				}
			}
			return res
		}
	}
	c.Stats.Misses++
	if write && writeThrough {
		// No-allocate: the store bypasses the cache entirely.
		c.Stats.Writebacks++
		return Result{WroteThrough: true}
	}
	res := c.install(set, tag, addr, write && !writeThrough, false)
	res.Hit = false
	return res
}

// Probe reports whether addr is present without touching recency or
// statistics. Prefetchers use it to filter redundant fills.
func (c *Cache) Probe(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs addr as a prefetched line. It is a no-op (returning a hit)
// when the line is already present.
func (c *Cache) Fill(addr uint64) Result {
	c.tick++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return Result{Hit: true}
		}
	}
	c.Stats.PrefetchFills++
	res := c.install(set, tag, addr, false, true)
	res.Hit = false
	return res
}

// install places a line, choosing a victim per the replacement policy.
func (c *Cache) install(set []line, tag, addr uint64, dirty, prefetch bool) Result {
	victim := 0
	found := false
	for i := range set {
		if !set[i].valid {
			victim, found = i, true
			break
		}
	}
	if !found {
		switch c.cfg.Policy {
		case FIFO:
			oldest := set[0].filledAt
			for i := 1; i < len(set); i++ {
				if set[i].filledAt < oldest {
					oldest, victim = set[i].filledAt, i
				}
			}
		case Random:
			victim = c.rnd.Intn(len(set))
		default: // LRU
			oldest := set[0].lastUse
			for i := 1; i < len(set); i++ {
				if set[i].lastUse < oldest {
					oldest, victim = set[i].lastUse, i
				}
			}
		}
	}
	var res Result
	v := &set[victim]
	if v.valid {
		c.Stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = c.reconstruct(v.tag, addr)
		res.EvictedDirty = v.dirty
		if v.dirty {
			c.Stats.Writebacks++
		}
	}
	*v = line{tag: tag, valid: true, dirty: dirty, prefetch: prefetch, lastUse: c.tick, filledAt: c.tick}
	return res
}

// reconstruct rebuilds a victim's line address from its tag and the set
// index of the incoming address (they share the set by construction).
func (c *Cache) reconstruct(tag, incoming uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(len(c.sets))))
	setIdx := (incoming >> c.lineBits) & c.setMask
	return ((tag << setBits) | setIdx) << c.lineBits
}
