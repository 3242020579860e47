// Package refmodel holds small, deliberately naive reference
// implementations of the production memory-model components: an LRU cache
// built on explicit recency lists, the O(N²) textbook stack-distance
// profiler, a map-based warp coalescer, an in-order FIFO DRAM timing
// model, and a sequential two-level cache hierarchy. Each one trades all
// performance for obviousness — the differential test suites replay
// identical generated streams through a production component and its
// reference twin and require bit-identical outcomes, so a silent bug in
// the fast path (or in the reference) surfaces as a divergence instead of
// as quietly wrong figures.
//
// The reference models reuse the production configuration and result
// types so comparisons need no translation layer; they share no
// implementation with the packages they check.
package refmodel

import "github.com/uteda/gmap/internal/cache"

// refLine is one resident cache line. Recency is positional — a line's
// index in its set's list — so there is no per-line clock to get wrong.
type refLine struct {
	tag      uint64
	dirty    bool
	prefetch bool
}

// Cache is a set-associative LRU cache whose every set is an explicit
// recency-ordered slice: index 0 is the most recently used line, the last
// element is the LRU victim.
type Cache struct {
	cfg      cache.Config
	sets     [][]refLine
	lineSize uint64
	setCount uint64
	// Stats mirrors the production cache's accounting.
	Stats cache.Stats
}

// NewCache builds a reference cache from the production configuration.
func NewCache(cfg cache.Config) (*Cache, error) {
	sets, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:      cfg,
		sets:     make([][]refLine, sets),
		lineSize: uint64(cfg.LineSize),
		setCount: uint64(sets),
	}, nil
}

// NewFullyAssocCache builds a single-set (fully-associative) reference
// cache holding the given number of lines.
func NewFullyAssocCache(lines, lineSize int, writes cache.WritePolicy) (*Cache, error) {
	return NewCache(cache.Config{
		SizeBytes: lines * lineSize,
		Ways:      lines,
		LineSize:  lineSize,
		Writes:    writes,
	})
}

// LineAddr returns addr aligned down to the line size.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr - addr%c.lineSize }

func (c *Cache) locate(addr uint64) (set uint64, tag uint64) {
	lineNum := addr / c.lineSize
	return lineNum % c.setCount, lineNum / c.setCount
}

// victimAddr rebuilds a line address from its set index and tag.
func (c *Cache) victimAddr(set, tag uint64) uint64 {
	return (tag*c.setCount + set) * c.lineSize
}

// find returns the index of tag in set si, or -1.
func (c *Cache) find(si, tag uint64) int {
	for i, ln := range c.sets[si] {
		if ln.tag == tag {
			return i
		}
	}
	return -1
}

// touch moves line i of set si to the most-recently-used position.
func (c *Cache) touch(si uint64, i int) {
	set := c.sets[si]
	ln := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = ln
}

// Access performs one demand access, mirroring the production semantics:
// hits refresh recency; write-back stores dirty the line; write-through
// stores count a writeback on both hit and miss and never allocate;
// misses install at MRU, evicting the list tail when the set is full.
func (c *Cache) Access(addr uint64, write bool) cache.Result {
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	si, tag := c.locate(addr)
	writeThrough := c.cfg.Writes == cache.WriteThroughNoAllocate
	if i := c.find(si, tag); i >= 0 {
		c.Stats.Hits++
		res := cache.Result{Hit: true}
		if c.sets[si][i].prefetch {
			c.sets[si][i].prefetch = false
			c.Stats.PrefetchUseful++
			res.PrefetchHit = true
		}
		if write {
			if writeThrough {
				res.WroteThrough = true
				c.Stats.Writebacks++
			} else {
				c.sets[si][i].dirty = true
			}
		}
		c.touch(si, i)
		return res
	}
	c.Stats.Misses++
	if write && writeThrough {
		c.Stats.Writebacks++
		return cache.Result{WroteThrough: true}
	}
	return c.install(si, tag, write && !writeThrough, false)
}

// Probe reports presence without touching recency or statistics.
func (c *Cache) Probe(addr uint64) bool {
	si, tag := c.locate(addr)
	return c.find(si, tag) >= 0
}

// Fill installs addr as a prefetched line. A fill that hits is a no-op —
// in particular it does NOT refresh the line's recency, matching the
// production cache (whose Fill returns before updating lastUse).
func (c *Cache) Fill(addr uint64) cache.Result {
	si, tag := c.locate(addr)
	if c.find(si, tag) >= 0 {
		return cache.Result{Hit: true}
	}
	c.Stats.PrefetchFills++
	return c.install(si, tag, false, true)
}

// install prepends a new line at MRU, evicting the LRU tail of a full set.
func (c *Cache) install(si, tag uint64, dirty, prefetch bool) cache.Result {
	var res cache.Result
	set := c.sets[si]
	if len(set) == c.cfg.Ways {
		victim := set[len(set)-1]
		set = set[:len(set)-1]
		c.Stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = c.victimAddr(si, victim.tag)
		res.EvictedDirty = victim.dirty
		if victim.dirty {
			c.Stats.Writebacks++
		}
	}
	c.sets[si] = append([]refLine{{tag: tag, dirty: dirty, prefetch: prefetch}}, set...)
	return res
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = nil
	}
	c.Stats = cache.Stats{}
}
