package memsim_test

import (
	"fmt"
	"testing"

	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/prefetch"
	"github.com/uteda/gmap/internal/proptest"
)

// panicPrefetcher panics on its nth Observe call, standing in for any
// defect inside the simulator's per-access pipeline.
type panicPrefetcher struct{ calls, after int }

func (p *panicPrefetcher) Observe(uint64, int, uint64, bool) []uint64 {
	p.calls++
	if p.calls >= p.after {
		panic("injected prefetcher fault")
	}
	return nil
}

func (p *panicPrefetcher) Reset() {}

// TestSimPanicPropagates pins the containment contract: a panic raised
// inside the access pipeline (an L1 prefetcher on a core, or the L2
// prefetcher on the shared L1-miss path) leaves Run on the caller's own
// goroutine with its value intact, so a caller's recover (the runner's
// per-job panic isolation) can contain it.
func TestSimPanicPropagates(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*memsim.Config)
	}{
		{"l1-prefetcher", func(c *memsim.Config) {
			c.NewL1Prefetcher = func() (prefetch.Prefetcher, error) {
				return &panicPrefetcher{after: 3}, nil
			}
		}},
		{"l2-prefetcher", func(c *memsim.Config) {
			c.L2Prefetcher = &panicPrefetcher{after: 3}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := proptest.New(42)
			cfg := memsim.Config{
				NumCores: 2,
				L1:       g.CacheConfig(),
				L2:       g.CacheConfig(),
				L2Banks:  1,
				DRAM:     dram.DefaultGDDR3(),
			}
			tc.apply(&cfg)
			sim, err := memsim.New(g.WarpSet(8, 0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("prefetcher panic was swallowed: Run returned normally")
				}
				if msg := fmt.Sprint(r); msg != "injected prefetcher fault" {
					t.Fatalf("panic value changed on the way out of Run: %v", msg)
				}
			}()
			sim.Run()
			t.Fatal("expected Run to panic")
		})
	}
}
