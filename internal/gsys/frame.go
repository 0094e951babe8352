package gsys

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The wire framing. A request frame is what a threadblock writes into its
// ring slot in write-shared host memory: a fixed header carrying the
// descriptor, lane, and sequence number, followed by a small
// scalar-argument vector, an optional path, and an optional inline data
// payload. No file call fills the payload: bulk page data never rides the
// frame — the host DMAs it directly to and from device pointers, as in the
// paper.
//
// Layout (little-endian):
//
//	magic   u16  frameMagic
//	version u8   frameVersion
//	sysno   u8
//	flags   u8   bits 0-1 granularity, bit 2 ordering, bit 3 blocking
//	argc    u8   <= MaxFrameArgs
//	lane    i32
//	seq     u64
//	args    argc × u64
//	pathLen u16  <= MaxFramePath, then path bytes
//	dataLen u32  <= MaxFrameData, then data bytes

const (
	frameMagic   = 0x4753 // "GS"
	frameVersion = 1

	// MaxFrameArgs bounds the scalar-argument vector.
	MaxFrameArgs = 16
	// MaxFramePath bounds the path length (PATH_MAX-ish).
	MaxFramePath = 4096
	// MaxFrameData bounds the inline data payload.
	MaxFrameData = 1 << 26

	frameHeaderLen = 2 + 1 + 1 + 1 + 1 + 4 + 8
)

// ErrBadFrame is wrapped by every frame-decoding failure.
var ErrBadFrame = errors.New("gsys: malformed syscall frame")

// Frame is one syscall request as it crosses the ring.
type Frame struct {
	Desc Desc
	Lane int32
	Seq  uint64
	Args []uint64
	Path string
	Data []byte
}

func (d Desc) packFlags() uint8 {
	return uint8(d.Gran) | uint8(d.Order)<<2 | uint8(d.Block)<<3
}

func unpackFlags(b uint8) (Desc, error) {
	d := Desc{
		Gran:  Granularity(b & 3),
		Order: Ordering(b >> 2 & 1),
		Block: Blocking(b >> 3 & 1),
	}
	if b>>4 != 0 {
		return d, fmt.Errorf("%w: reserved flag bits %#x set", ErrBadFrame, b)
	}
	return d, nil
}

// Encode marshals the frame into the wire format. It panics if the frame
// violates the framing bounds — those are caller bugs, not wire faults.
func (fr *Frame) Encode() []byte {
	if !fr.Desc.Valid() {
		panic(fmt.Sprintf("gsys: encoding invalid descriptor %+v", fr.Desc))
	}
	if len(fr.Args) > MaxFrameArgs {
		panic(fmt.Sprintf("gsys: %d frame args exceeds %d", len(fr.Args), MaxFrameArgs))
	}
	if len(fr.Path) > MaxFramePath {
		panic(fmt.Sprintf("gsys: %d-byte path exceeds %d", len(fr.Path), MaxFramePath))
	}
	if len(fr.Data) > MaxFrameData {
		panic(fmt.Sprintf("gsys: %d-byte payload exceeds %d", len(fr.Data), MaxFrameData))
	}
	buf := make([]byte, 0, frameHeaderLen+8*len(fr.Args)+2+len(fr.Path)+4+len(fr.Data))
	buf = binary.LittleEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, frameVersion, uint8(fr.Desc.Sysno), fr.Desc.packFlags(), uint8(len(fr.Args)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(fr.Lane))
	buf = binary.LittleEndian.AppendUint64(buf, fr.Seq)
	for _, a := range fr.Args {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fr.Path)))
	buf = append(buf, fr.Path...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fr.Data)))
	buf = append(buf, fr.Data...)
	return buf
}

// DecodeFrame unmarshals a wire frame, validating magic, version, enum
// ranges, bounds, and exact length. The Data slice aliases wire.
func DecodeFrame(wire []byte) (*Frame, error) {
	if len(wire) < frameHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrBadFrame, len(wire), frameHeaderLen)
	}
	if m := binary.LittleEndian.Uint16(wire); m != frameMagic {
		return nil, fmt.Errorf("%w: magic %#04x, want %#04x", ErrBadFrame, m, frameMagic)
	}
	if v := wire[2]; v != frameVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, v, frameVersion)
	}
	fr := &Frame{}
	var err error
	fr.Desc, err = unpackFlags(wire[4])
	if err != nil {
		return nil, err
	}
	fr.Desc.Sysno = Sysno(wire[3])
	if !fr.Desc.Valid() {
		return nil, fmt.Errorf("%w: descriptor %+v out of range", ErrBadFrame, fr.Desc)
	}
	argc := int(wire[5])
	if argc > MaxFrameArgs {
		return nil, fmt.Errorf("%w: argc %d exceeds %d", ErrBadFrame, argc, MaxFrameArgs)
	}
	fr.Lane = int32(binary.LittleEndian.Uint32(wire[6:]))
	fr.Seq = binary.LittleEndian.Uint64(wire[10:])
	p := frameHeaderLen
	if len(wire) < p+8*argc+2 {
		return nil, fmt.Errorf("%w: truncated arg vector", ErrBadFrame)
	}
	if argc > 0 {
		fr.Args = make([]uint64, argc)
		for i := range fr.Args {
			fr.Args[i] = binary.LittleEndian.Uint64(wire[p:])
			p += 8
		}
	}
	pathLen := int(binary.LittleEndian.Uint16(wire[p:]))
	p += 2
	if pathLen > MaxFramePath {
		return nil, fmt.Errorf("%w: path length %d exceeds %d", ErrBadFrame, pathLen, MaxFramePath)
	}
	if len(wire) < p+pathLen+4 {
		return nil, fmt.Errorf("%w: truncated path", ErrBadFrame)
	}
	fr.Path = string(wire[p : p+pathLen])
	p += pathLen
	dataLen := int(binary.LittleEndian.Uint32(wire[p:]))
	p += 4
	if dataLen > MaxFrameData {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, dataLen, MaxFrameData)
	}
	if len(wire) != p+dataLen {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(wire)-p-dataLen)
	}
	if dataLen > 0 {
		fr.Data = wire[p : p+dataLen]
	}
	return fr, nil
}
