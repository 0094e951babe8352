package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The wire format: a fixed header (magic + version), then the Image
// fields in declaration order — unsigned varints for counts and
// identities, zigzag varints for signed quantities, length-prefixed raw
// bytes for strings and page payloads.
//
// Decode is hardened for fuzzing: every count is bounds-checked against
// the bytes actually remaining (an element costs at least one byte), so
// a hostile header cannot make the decoder allocate unbounded memory,
// and every truncation path returns ErrTruncated instead of panicking.

const (
	codecMagic   = 0x47434B50 // "GCKP"
	codecVersion = 4
)

// ErrTruncated is returned when the image ends mid-field.
var ErrTruncated = errors.New("ckpt: truncated image")

// ErrCorrupt is returned for a bad magic, version, or implausible count.
var ErrCorrupt = errors.New("ckpt: corrupt image")

// Encode serializes the image.
func (img *Image) Encode() []byte {
	var e enc
	e.u64(codecMagic)
	e.u64(codecVersion)
	e.i64(img.SourceHost)
	e.i64(img.CaptureStart)
	e.i64(img.CaptureEnd)

	e.u64(uint64(len(img.GPUs)))
	for i := range img.GPUs {
		g := &img.GPUs[i]
		e.i64(g.GPU)
		e.u64(uint64(len(g.Files)))
		for j := range g.Files {
			f := &g.Files[j]
			e.str(f.Path)
			e.i64(f.Ino)
			e.i64(f.Gen)
			e.i64(f.Size)
			e.i64(f.Flags)
			e.str(f.WbErr)
			e.u64(uint64(len(f.Dirty)))
			for k := range f.Dirty {
				p := &f.Dirty[k]
				e.i64(p.Index)
				e.i64(p.Valid)
				e.bytes(p.Data)
			}
			e.i64s(f.Clean)
			e.u64(uint64(len(f.Strides)))
			for k := range f.Strides {
				s := &f.Strides[k]
				e.i64(s.Slot)
				e.i64(s.First)
				e.i64(s.Stride)
				e.i64(s.Window)
			}
		}
	}

	e.u64(uint64(len(img.Queued)))
	for i := range img.Queued {
		j := &img.Queued[i]
		e.i64(j.ID)
		e.str(j.Tenant)
		e.i64(j.Kind)
		e.str(j.Path)
		e.str(j.Word)
		e.i64(j.Deadline)
	}
	return e.buf
}

// Decode parses an encoded image.
func Decode(data []byte) (*Image, error) {
	d := dec{buf: data}
	if d.u64() != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.u64(); v != codecVersion {
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	img := &Image{
		SourceHost:   d.i64(),
		CaptureStart: d.i64(),
		CaptureEnd:   d.i64(),
	}

	ng := d.count()
	for i := uint64(0); i < ng && d.err == nil; i++ {
		var g FSImage
		g.GPU = d.i64()
		nf := d.count()
		for j := uint64(0); j < nf && d.err == nil; j++ {
			var f FileImage
			f.Path = d.str()
			f.Ino = d.i64()
			f.Gen = d.i64()
			f.Size = d.i64()
			f.Flags = d.i64()
			f.WbErr = d.str()
			np := d.count()
			for k := uint64(0); k < np && d.err == nil; k++ {
				f.Dirty = append(f.Dirty, PageImage{
					Index: d.i64(),
					Valid: d.i64(),
					Data:  d.bytes(),
				})
			}
			f.Clean = d.i64s()
			ns := d.count()
			for k := uint64(0); k < ns && d.err == nil; k++ {
				f.Strides = append(f.Strides, StrideImage{
					Slot:   d.i64(),
					First:  d.i64(),
					Stride: d.i64(),
					Window: d.i64(),
				})
			}
			g.Files = append(g.Files, f)
		}
		img.GPUs = append(img.GPUs, g)
	}

	nq := d.count()
	for i := uint64(0); i < nq && d.err == nil; i++ {
		img.Queued = append(img.Queued, JobImage{
			ID:       d.i64(),
			Tenant:   d.str(),
			Kind:     d.i64(),
			Path:     d.str(),
			Word:     d.str(),
			Deadline: d.i64(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return img, nil
}

type enc struct{ buf []byte }

func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) str(s string) { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) i64s(vs []int64) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.i64(v)
	}
}

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

// count reads an element count, rejecting any value the remaining bytes
// cannot possibly back (each element costs at least one encoded byte).
func (d *dec) count() uint64 {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("%w: count %d exceeds remaining %d bytes",
			ErrCorrupt, n, len(d.buf)-d.off)
		return 0
	}
	return n
}

func (d *dec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *dec) str() string { return string(d.take(d.u64())) }

func (d *dec) bytes() []byte {
	b := d.take(d.u64())
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *dec) i64s() []int64 {
	n := d.count()
	var vs []int64
	for i := uint64(0); i < n && d.err == nil; i++ {
		vs = append(vs, d.i64())
	}
	if d.err != nil {
		return nil
	}
	return vs
}
