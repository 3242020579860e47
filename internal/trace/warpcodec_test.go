package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/rng"
)

func sampleWarpFile() *WarpFile {
	wf := &WarpFile{Name: "proxy", GridDim: 2, BlockDim: 64}
	for w := 0; w < 4; w++ {
		wt := WarpTrace{WarpID: w, Block: w / 2}
		for j := 0; j < 10; j++ {
			wt.Requests = append(wt.Requests, Request{
				PC:      uint64(0x100 + 8*(j%3)),
				Addr:    uint64(0x10000 + 128*j + 4096*w),
				Kind:    Kind(j % 2),
				WarpID:  w,
				Threads: 32,
			})
		}
		wf.Warps = append(wf.Warps, wt)
	}
	return wf
}

func TestWarpBinaryRoundTrip(t *testing.T) {
	wf := sampleWarpFile()
	var buf bytes.Buffer
	if err := WriteWarpsBinary(&buf, wf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWarpsBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != wf.Name || got.GridDim != wf.GridDim || got.BlockDim != wf.BlockDim {
		t.Fatalf("metadata lost: %+v", got)
	}
	if len(got.Warps) != len(wf.Warps) {
		t.Fatalf("warp count %d != %d", len(got.Warps), len(wf.Warps))
	}
	for w := range wf.Warps {
		if got.Warps[w].WarpID != wf.Warps[w].WarpID || got.Warps[w].Block != wf.Warps[w].Block {
			t.Fatalf("warp %d header differs", w)
		}
		for j := range wf.Warps[w].Requests {
			if got.Warps[w].Requests[j] != wf.Warps[w].Requests[j] {
				t.Fatalf("warp %d request %d: %+v != %+v",
					w, j, got.Warps[w].Requests[j], wf.Warps[w].Requests[j])
			}
		}
	}
}

func TestWarpBinaryBadMagic(t *testing.T) {
	if _, err := ReadWarpsBinary(strings.NewReader("GMAPTRC1xxxx")); !errors.Is(err, ErrBadWarpMagic) {
		t.Errorf("err = %v, want ErrBadWarpMagic", err)
	}
}

func TestWarpBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWarpsBinary(&buf, sampleWarpFile()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadWarpsBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestWarpBinaryEmpty(t *testing.T) {
	wf := &WarpFile{Name: "empty", GridDim: 1, BlockDim: 32, Warps: []WarpTrace{{WarpID: 0}}}
	var buf bytes.Buffer
	if err := WriteWarpsBinary(&buf, wf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWarpsBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Warps) != 1 || len(got.Warps[0].Requests) != 0 {
		t.Errorf("empty warp lost: %+v", got)
	}
}

func TestWarpBinaryCompact(t *testing.T) {
	r := rng.New(3)
	wf := &WarpFile{Name: "big", GridDim: 1, BlockDim: 32}
	wt := WarpTrace{WarpID: 0}
	addr := uint64(0x100000)
	for j := 0; j < 1000; j++ {
		addr += 128
		wt.Requests = append(wt.Requests, Request{PC: 0x10, Addr: addr, Kind: Load, Threads: int(r.Uint64n(32)) + 1})
	}
	wf.Warps = append(wf.Warps, wt)
	var buf bytes.Buffer
	if err := WriteWarpsBinary(&buf, wf); err != nil {
		t.Fatal(err)
	}
	// Strided requests should cost only a few bytes each.
	if perReq := buf.Len() / 1000; perReq > 8 {
		t.Errorf("encoded size %dB/request, want <= 8", perReq)
	}
}

func TestWarpBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nWarps, nReq uint8) bool {
		r := rng.New(seed)
		wf := &WarpFile{Name: "prop", GridDim: 2, BlockDim: 64}
		for w := 0; w < int(nWarps%6)+1; w++ {
			wt := WarpTrace{WarpID: w, Block: w / 2}
			for j := 0; j < int(nReq%24); j++ {
				wt.Requests = append(wt.Requests, Request{
					PC:      r.Uint64(),
					Addr:    r.Uint64(),
					Kind:    Kind(r.Intn(3)),
					WarpID:  w,
					Threads: int(r.Uint64n(33)),
				})
			}
			wf.Warps = append(wf.Warps, wt)
		}
		var buf bytes.Buffer
		if err := WriteWarpsBinary(&buf, wf); err != nil {
			return false
		}
		got, err := ReadWarpsBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Warps) != len(wf.Warps) {
			return false
		}
		for w := range wf.Warps {
			if len(got.Warps[w].Requests) != len(wf.Warps[w].Requests) {
				return false
			}
			for j := range wf.Warps[w].Requests {
				if got.Warps[w].Requests[j] != wf.Warps[w].Requests[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
