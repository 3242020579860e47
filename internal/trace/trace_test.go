package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/rng"
)

func sampleTrace() *KernelTrace {
	k := &KernelTrace{Name: "vecadd", GridDim: 2, BlockDim: 4}
	for t := 0; t < 8; t++ {
		tt := ThreadTrace{ThreadID: t}
		for j := 0; j < 3; j++ {
			tt.Accesses = append(tt.Accesses,
				Access{PC: 0x100, Addr: uint64(0x1000 + 4*t + 128*j), Kind: Load},
				Access{PC: 0x108, Addr: uint64(0x8000 + 4*t + 128*j), Kind: Store},
			)
		}
		k.Threads = append(k.Threads, tt)
	}
	return k
}

func TestKindString(t *testing.T) {
	if Load.String() != "LD" || Store.String() != "ST" {
		t.Error("Kind strings wrong")
	}
}

func TestAccessString(t *testing.T) {
	a := Access{PC: 0x900, Addr: 0x1000, Kind: Load}
	if got := a.String(); got != "LD pc=0x900 addr=0x1000" {
		t.Errorf("Access.String = %q", got)
	}
}

func TestRequestString(t *testing.T) {
	r := Request{PC: 0x900, Addr: 0x1000, Kind: Store, WarpID: 3, Threads: 32}
	if got := r.String(); got != "ST warp=3 pc=0x900 line=0x1000 (x32)" {
		t.Errorf("Request.String = %q", got)
	}
}

func TestKernelTraceCounts(t *testing.T) {
	k := sampleTrace()
	if k.NumThreads() != 8 {
		t.Errorf("NumThreads = %d", k.NumThreads())
	}
	if k.NumAccesses() != 8*6 {
		t.Errorf("NumAccesses = %d", k.NumAccesses())
	}
}

func TestValidate(t *testing.T) {
	k := sampleTrace()
	if err := k.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	k.Threads[3].ThreadID = 99
	if err := k.Validate(); err == nil {
		t.Error("bad thread id accepted")
	}
	k = sampleTrace()
	k.GridDim = 5
	if err := k.Validate(); err == nil {
		t.Error("geometry mismatch accepted")
	}
	k = sampleTrace()
	k.BlockDim = 0
	if err := k.Validate(); err == nil {
		t.Error("zero geometry accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	k := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, k); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, k, got)
}

func TestBinaryCompression(t *testing.T) {
	k := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, k); err != nil {
		t.Fatal(err)
	}
	raw := k.NumAccesses() * 17 // 8B pc + 8B addr + 1B kind
	if buf.Len() >= raw {
		t.Errorf("binary form (%dB) not smaller than raw (%dB)", buf.Len(), raw)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACE")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	k := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, k); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, len(binaryMagic), len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	k := &KernelTrace{Name: "empty", GridDim: 1, BlockDim: 1, Threads: []ThreadTrace{{ThreadID: 0}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, k); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, k, got)
}

func TestBinaryRoundTripProperty(t *testing.T) {
	r := rng.New(999)
	f := func(seed uint64, nThreads, nAcc uint8) bool {
		nt := int(nThreads%8) + 1
		na := int(nAcc % 32)
		k := &KernelTrace{Name: "prop", GridDim: 1, BlockDim: nt}
		local := rng.New(seed)
		for t := 0; t < nt; t++ {
			tt := ThreadTrace{ThreadID: t}
			for j := 0; j < na; j++ {
				tt.Accesses = append(tt.Accesses, Access{
					PC:   local.Uint64(),
					Addr: local.Uint64(),
					Kind: Kind(local.Intn(2)),
				})
			}
			k.Threads = append(k.Threads, tt)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, k); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(k, got)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	k := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, k); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, k, got)
}

func TestTextParseErrors(t *testing.T) {
	cases := []string{
		"LD 100 200\n",      // access before thread header
		"T 0\nXX 100 200\n", // unknown kind
		"T zero\n",          // bad thread id
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("bad input %q accepted", c)
		}
	}
}

func TestTextSkipsBlankLines(t *testing.T) {
	in := "# gmap-trace name=x grid=1 block=1\n\nT 0\n\nLD 10 20\n"
	k, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "x" || len(k.Threads) != 1 || len(k.Threads[0].Accesses) != 1 {
		t.Errorf("parsed trace wrong: %+v", k)
	}
	if a := k.Threads[0].Accesses[0]; a.PC != 0x10 || a.Addr != 0x20 {
		t.Errorf("access = %v", a)
	}
}

func TestWarpTraceLen(t *testing.T) {
	w := &WarpTrace{WarpID: 1, Requests: make([]Request, 5)}
	if w.Len() != 5 {
		t.Errorf("Len = %d", w.Len())
	}
}

func assertTracesEqual(t *testing.T, want, got *KernelTrace) {
	t.Helper()
	if !tracesEqual(want, got) {
		t.Fatalf("traces differ:\nwant %+v\ngot  %+v", want, got)
	}
}

func tracesEqual(a, b *KernelTrace) bool {
	if a.Name != b.Name || a.GridDim != b.GridDim || a.BlockDim != b.BlockDim || len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Threads {
		ta, tb := &a.Threads[i], &b.Threads[i]
		if ta.ThreadID != tb.ThreadID || len(ta.Accesses) != len(tb.Accesses) {
			return false
		}
		for j := range ta.Accesses {
			if ta.Accesses[j] != tb.Accesses[j] {
				return false
			}
		}
	}
	return true
}

// TestBinaryConcurrent round-trips traces of different sizes on several
// goroutines at once: the codecs share a pool of byte windows, and no
// two calls may hold the same window.
func TestBinaryConcurrent(t *testing.T) {
	traces := []*KernelTrace{sampleTrace(), largeTrace()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := traces[(g+i)%len(traces)]
				var buf bytes.Buffer
				if err := WriteBinary(&buf, k); err != nil {
					t.Error(err)
					return
				}
				got, err := ReadBinary(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				if !tracesEqual(k, got) {
					t.Errorf("goroutine %d: %s changed in a concurrent round trip", g, k.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// largeTrace is a kernel trace of 512k accesses, about the size of one
// large-kernel benchmark at scale 8: each thread walks two arrays at a
// thread-linear stride, with a data-dependent jump every 16 accesses.
func largeTrace() *KernelTrace {
	k := &KernelTrace{Name: "large", GridDim: 64, BlockDim: 64}
	for t := 0; t < 64*64; t++ {
		tt := ThreadTrace{ThreadID: t, Accesses: make([]Access, 0, 128)}
		for j := 0; j < 64; j++ {
			jump := uint64(j/16) * uint64(t*7919%4096) << 12
			tt.Accesses = append(tt.Accesses,
				Access{PC: 0x100, Addr: 0x10000000 + jump + uint64(4*t+4096*j), Kind: Load},
				Access{PC: 0x108 + 8*uint64(j%3), Addr: 0x80000000 + uint64(4*t+128*j), Kind: Kind(j % 2)},
			)
		}
		k.Threads = append(k.Threads, tt)
	}
	return k
}

// binaryInputs are the traces the codec benchmarks encode and decode:
// the 48-access sample, where per-call costs dominate, and largeTrace.
var binaryInputs = []struct {
	name  string
	trace func() *KernelTrace
}{{"small", sampleTrace}, {"large", largeTrace}}

func BenchmarkWriteBinary(b *testing.B) {
	for _, in := range binaryInputs {
		k := in.trace()
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteBinary(io.Discard, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadBinary(b *testing.B) {
	for _, in := range binaryInputs {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, in.trace()); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
