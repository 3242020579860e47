package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// fuzzKernel is a small but representative trace for seeding: multiple
// threads, mixed kinds, large address deltas (exercising zig-zag), and an
// empty thread.
func fuzzKernel() *KernelTrace {
	return &KernelTrace{
		Name:     "fuzz",
		GridDim:  2,
		BlockDim: 64,
		Threads: []ThreadTrace{
			{ThreadID: 0, Accesses: []Access{
				{PC: 0x400, Addr: 0x10000000, Kind: Load},
				{PC: 0x408, Addr: 0x10000080, Kind: Store},
				{PC: 0x410, Addr: 0x8, Kind: Load},
				{PC: 0x410, Addr: 0xfffffffffffffff0, Kind: Sync},
			}},
			{ThreadID: 1},
			{ThreadID: 2, Accesses: []Access{
				{PC: 0x400, Addr: 0x20000000, Kind: Load},
			}},
		},
	}
}

func fuzzWarpFile() *WarpFile {
	return &WarpFile{
		Name:     "fuzz",
		GridDim:  2,
		BlockDim: 64,
		Warps: []WarpTrace{
			{WarpID: 0, Block: 0, Requests: []Request{
				{PC: 0x400, Addr: 0x10000000, Kind: Load, WarpID: 0, Threads: 32},
				{PC: 0x408, Addr: 0x80, Kind: Store, WarpID: 0, Threads: 7},
			}},
			{WarpID: 3, Block: 1},
		},
	}
}

// FuzzReadBinary feeds arbitrary bytes to the per-thread trace decoder.
// Whatever the input, the decoder must either return an error or a trace
// that survives a clean re-encode/re-decode round trip; it must never
// panic, and a corrupt header claiming billions of elements must not
// cause a giant allocation (the fuzzer's memory limit enforces this).
func FuzzReadBinary(f *testing.F) {
	var good bytes.Buffer
	if err := WriteBinary(&good, fuzzKernel()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2]) // truncated mid-stream
	f.Add([]byte("GMAPTRC1"))                 // header only
	f.Add([]byte("NOTMAGIC" + "junk"))        // wrong magic
	// Valid magic, then a huge claimed thread count (0xffffffff varint).
	f.Add([]byte("GMAPTRC1\x00\x01\x01\xff\xff\xff\xff\x0f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, k); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		k2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(k2.Threads) != len(k.Threads) || k2.Name != k.Name {
			t.Fatalf("round trip changed shape: %d/%d threads", len(k2.Threads), len(k.Threads))
		}
		for i := range k.Threads {
			if len(k2.Threads[i].Accesses) != len(k.Threads[i].Accesses) {
				t.Fatalf("thread %d: %d accesses became %d", i,
					len(k.Threads[i].Accesses), len(k2.Threads[i].Accesses))
			}
		}
	})
}

// FuzzReadWarpsBinary is the warp-stream counterpart of FuzzReadBinary.
func FuzzReadWarpsBinary(f *testing.F) {
	var good bytes.Buffer
	if err := WriteWarpsBinary(&good, fuzzWarpFile()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())-3])
	f.Add([]byte("GMAPWRP1"))
	f.Add([]byte("GMAPTRC1")) // the other format's magic
	// Valid magic + tiny header, then an absurd warp count.
	f.Add([]byte("GMAPWRP1\x00\x01\x01\xff\xff\xff\xff\xff\xff\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		wf, err := ReadWarpsBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteWarpsBinary(&buf, wf); err != nil {
			t.Fatalf("re-encode of decoded warp file failed: %v", err)
		}
		wf2, err := ReadWarpsBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(wf2.Warps) != len(wf.Warps) || wf2.Name != wf.Name {
			t.Fatalf("round trip changed shape: %d/%d warps", len(wf2.Warps), len(wf.Warps))
		}
		for i := range wf.Warps {
			if len(wf2.Warps[i].Requests) != len(wf.Warps[i].Requests) {
				t.Fatalf("warp %d: %d requests became %d", i,
					len(wf.Warps[i].Requests), len(wf2.Warps[i].Requests))
			}
		}
	})
}

// uv encodes a sequence of uvarints, for assembling corrupt streams.
func uv(vals ...uint64) string {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, v)
	}
	return string(out)
}

// TestCorruptHeadersError pins the hardening down without the fuzzer: a
// header claiming a count beyond the sanity limit must be rejected, and a
// large-but-allowed claimed count over an empty body must hit the
// truncation error without first allocating the claimed size.
func TestCorruptHeadersError(t *testing.T) {
	const wrap = uint64(1) << 63 // wraps to a negative int if cast unchecked
	cases := []struct {
		name string
		data string
	}{
		{"thread count over limit", "GMAPTRC1\x00\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"},
		{"huge thread count, empty body", "GMAPTRC1\x00\x01\x01\xff\xff\xff\xff\x07"},
		{"warp count over limit", "GMAPWRP1\x00\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"},
		{"huge warp count, empty body", "GMAPWRP1\x00\x01\x01\xff\xff\xff\xff\x07"},
		{"grid dim wraps negative", "GMAPTRC1" + uv(0, wrap, 1, 0)},
		{"block dim wraps negative", "GMAPTRC1" + uv(0, 1, wrap, 0)},
		{"warp grid dim wraps negative", "GMAPWRP1" + uv(0, wrap, 1, 0)},
		{"warp id wraps negative", "GMAPWRP1" + uv(0, 1, 1, 1, wrap, 0, 0)},
		{"warp block id wraps negative", "GMAPWRP1" + uv(0, 1, 1, 1, 0, wrap, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if strings.HasPrefix(tc.data, binaryMagic) {
				_, err = ReadBinary(strings.NewReader(tc.data))
			} else {
				_, err = ReadWarpsBinary(strings.NewReader(tc.data))
			}
			if err == nil {
				t.Fatal("corrupt header accepted")
			}
		})
	}
}

// TestBinaryErrorOffsets pins where each binary format reports a break:
// every decode failure is a *FormatError whose Offset is the number of
// bytes consumed when decoding failed, so bytes the decoder never
// reached (the trailing "zz" below) do not count. A stream must end
// after its last record: a byte past it fails at its own offset.
func TestBinaryErrorOffsets(t *testing.T) {
	const over = maxReasonableCount + 1 // five varint bytes
	// Whole one-record streams: 16 bytes of trace, 19 of warps.
	trace1 := binaryMagic + uv(0, 1, 1, 1, 1, 2, 2) + "\x00"
	warps1 := warpMagic + uv(0, 1, 32, 1, 0, 0, 1, 2, 2) + "\x00\x20"
	cases := []struct {
		name   string
		data   string
		read   func(string) error
		offset int64
		is     error
	}{
		{"trace bad magic", "NOTMAGICjunk", readTrace, 0, ErrBadMagic},
		{"trace truncated magic", "GMAP", readTrace, 4, io.ErrUnexpectedEOF},
		{"trace truncated header varint", binaryMagic + uv(0, 1) + "\x80", readTrace, 11, io.ErrUnexpectedEOF},
		{"trace header varint overflows", binaryMagic + uv(0) + strings.Repeat("\xff", 10) + "zz", readTrace, 19, nil},
		{"trace name over the cap", binaryMagic + uv(1<<16+1) + "zz", readTrace, 11, errTooLarge},
		{"trace truncated name", binaryMagic + uv(5) + "ab", readTrace, 11, io.ErrUnexpectedEOF},
		{"trace record truncated mid-varint", binaryMagic + uv(0, 1, 1, 1, 1, 2) + "\x80", readTrace, 15, io.ErrUnexpectedEOF},
		{"trace record truncated before its kind", binaryMagic + uv(0, 1, 1, 1, 1, 2, 2), readTrace, 15, io.EOF},
		{"trace kind byte 3", binaryMagic + uv(0, 1, 1, 1, 1, 2, 2) + "\x03zz", readTrace, 16, nil},
		{"trace thread count over limit", binaryMagic + uv(0, 1, 1, over) + "zz", readTrace, 16, errTooLarge},
		{"trace access count over limit", binaryMagic + uv(0, 1, 1, 1, over) + "zz", readTrace, 17, errTooLarge},
		{"trace fails Validate", binaryMagic + uv(0, 1, 2, 1, 0) + "zz", readTrace, 13, nil},
		{"trace bytes after the last thread", trace1 + "zz", readTrace, 16, errTrailing},
		{"trace newline after the last thread", trace1 + "\n", readTrace, 16, errTrailing},
		{"two traces concatenated", trace1 + trace1, readTrace, 16, errTrailing},

		{"warp bad magic", binaryMagic + "junk", readWarps, 0, ErrBadWarpMagic},
		{"warp truncated magic", "GMAP", readWarps, 4, io.ErrUnexpectedEOF},
		{"warp truncated header varint", warpMagic + uv(0, 1) + "\x80", readWarps, 11, io.ErrUnexpectedEOF},
		{"warp header varint overflows", warpMagic + uv(0) + strings.Repeat("\xff", 10) + "zz", readWarps, 19, nil},
		{"warp name over the cap", warpMagic + uv(1<<16+1) + "zz", readWarps, 11, errTooLarge},
		{"warp truncated name", warpMagic + uv(5) + "ab", readWarps, 11, io.ErrUnexpectedEOF},
		{"warp record truncated mid-varint", warpMagic + uv(0, 1, 32, 1, 0, 0, 1, 2) + "\x80", readWarps, 17, io.ErrUnexpectedEOF},
		{"warp record truncated before its threads", warpMagic + uv(0, 1, 32, 1, 0, 0, 1, 2, 2) + "\x00", readWarps, 18, io.EOF},
		{"warp kind byte 3", warpMagic + uv(0, 1, 32, 1, 0, 0, 1, 2, 2) + "\x03\x20zz", readWarps, 18, nil},
		{"warp count over limit", warpMagic + uv(0, 1, 32, over) + "zz", readWarps, 16, errTooLarge},
		{"warp request count over limit", warpMagic + uv(0, 1, 32, 1, 0, 0, over) + "zz", readWarps, 19, errTooLarge},
		{"warp bytes after the last warp", warps1 + "zz", readWarps, 19, errTrailing},
		{"two warp streams concatenated", warps1 + warps1, readWarps, 19, errTrailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.read(tc.data)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want a *FormatError", err, err)
			}
			if fe.Offset != tc.offset {
				t.Errorf("offset = %d, want %d (err: %v)", fe.Offset, tc.offset, err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("err = %v, want it to wrap %v", err, tc.is)
			}
		})
	}
}

func readTrace(data string) error {
	_, err := ReadBinary(strings.NewReader(data))
	return err
}

func readWarps(data string) error {
	_, err := ReadWarpsBinary(strings.NewReader(data))
	return err
}
