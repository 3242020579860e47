package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary warp-trace format (coalesced streams, e.g. generated proxies):
//
//	magic   "GMAPWRP1"                  8 bytes
//	name    uvarint length + bytes
//	grid    uvarint
//	block   uvarint
//	warps   uvarint
//	for each warp:
//	    warpID   uvarint
//	    blockID  uvarint
//	    requests uvarint
//	    for each request:
//	        pc      uvarint (delta, zig-zag)
//	        addr    uvarint (delta, zig-zag)
//	        kind    1 byte
//	        threads 1 byte

const warpMagic = "GMAPWRP1"

// ErrBadWarpMagic is returned when decoding data that is not a warp-trace
// stream.
var ErrBadWarpMagic = errors.New("trace: bad magic, not a G-MAP warp trace")

// WarpFile bundles warp streams with the launch geometry they came from.
type WarpFile struct {
	Name     string
	GridDim  int
	BlockDim int
	Warps    []WarpTrace
}

// WriteWarpsBinary encodes wf into w.
func WriteWarpsBinary(w io.Writer, wf *WarpFile) error {
	bw := newBinWriter(w, warpMagic, wf.Name, wf.GridDim, wf.BlockDim, len(wf.Warps))
	defer bw.release()
	for i := range wf.Warps {
		if err := bw.flushFull(); err != nil {
			return err
		}
		wt := &wf.Warps[i]
		bw.buf = binary.AppendUvarint(bw.buf, uint64(wt.WarpID))
		bw.buf = binary.AppendUvarint(bw.buf, uint64(wt.Block))
		bw.buf = binary.AppendUvarint(bw.buf, uint64(len(wt.Requests)))
		var prevPC, prevAddr uint64
		for _, r := range wt.Requests {
			if err := bw.flushFull(); err != nil {
				return err
			}
			threads := r.Threads
			if threads < 0 || threads > 255 {
				threads = 0
			}
			bw.buf = binary.AppendUvarint(bw.buf, zigzag(int64(r.PC-prevPC)))
			bw.buf = binary.AppendUvarint(bw.buf, zigzag(int64(r.Addr-prevAddr)))
			bw.buf = append(bw.buf, byte(r.Kind), byte(threads))
			prevPC, prevAddr = r.PC, r.Addr
		}
	}
	return bw.flush()
}

// ReadWarpsBinary decodes a stream written by WriteWarpsBinary. Decode
// failures are *FormatError values carrying the number of bytes consumed
// when the stream broke.
func ReadWarpsBinary(r io.Reader) (*WarpFile, error) {
	d := newBinReader(r)
	defer d.release()
	name, grid, block, nWarps, err := d.header(warpMagic, ErrBadWarpMagic)
	if err != nil {
		return nil, err
	}
	wf := &WarpFile{
		Name:     name,
		GridDim:  grid,
		BlockDim: block,
		Warps:    make([]WarpTrace, 0, allocHint(uint64(nWarps))),
	}
	for i := 0; i < nWarps; i++ {
		var v [3]uint64
		for j := range v {
			if v[j], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		if v[0] > maxReasonableCount || v[1] > maxReasonableCount || v[2] > maxReasonableCount {
			return nil, d.fail(errTooLarge)
		}
		id, nReq := int(v[0]), int(v[2])
		wt := WarpTrace{
			WarpID:   id,
			Block:    int(v[1]),
			Requests: make([]Request, 0, allocHint(v[2])),
		}
		var prevPC, prevAddr uint64
		for j := 0; j < nReq; j++ {
			dpc, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			daddr, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			kind, err := d.readByte()
			if err != nil {
				return nil, err
			}
			if kind > byte(Sync) {
				return nil, d.fail(fmt.Errorf("invalid request kind %d", kind))
			}
			threads, err := d.readByte()
			if err != nil {
				return nil, err
			}
			prevPC += uint64(unzigzag(dpc))
			prevAddr += uint64(unzigzag(daddr))
			wt.Requests = append(wt.Requests, Request{
				PC:      prevPC,
				Addr:    prevAddr,
				Kind:    Kind(kind),
				WarpID:  id,
				Threads: int(threads),
			})
		}
		wf.Warps = append(wf.Warps, wt)
	}
	return wf, nil
}
