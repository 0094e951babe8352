package core

import (
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// SetTracer attaches an operation tracer (shared across GPUs is fine: the
// tracer is concurrency-safe and events carry the GPU id). A nil tracer —
// the default — records nothing and costs one nil check per call.
func (fs *FS) SetTracer(t *trace.Tracer) { fs.tracer = t }

// record emits one event if tracing is enabled.
func (fs *FS) record(b *gpu.Block, op trace.Op, path string, off, n int64, start simtime.Time, err error) {
	fs.recordAt(b.Idx, op, path, off, n, start, b.Clock.Now(), err)
}

// recordAt is record with an explicit actor and span, for paths that do
// not run on a threadblock's clock (the background cleaner reports a
// negative block index).
func (fs *FS) recordAt(block int, op trace.Op, path string, off, n int64, start, end simtime.Time, err error) {
	// The metrics hook shares the tracer's op names and spans, so a
	// histogram's op label selects the same population a trace filter on
	// that op would.
	fs.met.observeOp(op, start, end)
	if !fs.tracer.Enabled() {
		return
	}
	e := trace.Event{
		GPU:    fs.gpuID,
		Block:  block,
		Op:     op,
		Path:   path,
		Offset: off,
		Bytes:  n,
		Start:  start,
		End:    end,
	}
	if err != nil {
		e.Err = err.Error()
	}
	fs.tracer.Record(e)
}

// pathOf resolves a descriptor's path for tracing, best-effort. With no
// tracer listening it resolves nothing: the lookup takes the table lock, which
// the hit path otherwise takes once per call.
func (fs *FS) pathOf(fd int) string {
	if !fs.tracer.Enabled() {
		return ""
	}
	if f, err := fs.ft.lookup(fd); err == nil {
		return f.path
	}
	return ""
}

// The public API: thin tracing wrappers over the implementations.

// Open implements gopen; see openImpl for semantics. The event's size is the
// bytes of the file the open carried in.
func (fs *FS) Open(b *gpu.Block, path string, flags int) (int, error) {
	start := b.Clock.Now()
	fd, carried, err := fs.openImpl(b, path, flags)
	fs.record(b, trace.OpOpen, path, 0, carried, start, err)
	return fd, err
}

// Close implements gclose; see closeImpl for semantics.
func (fs *FS) Close(b *gpu.Block, fd int) error {
	start := b.Clock.Now()
	path := fs.pathOf(fd)
	err := fs.closeImpl(b, fd)
	fs.record(b, trace.OpClose, path, 0, 0, start, err)
	return err
}

// Read implements gread; see readImpl for semantics.
func (fs *FS) Read(b *gpu.Block, fd int, dst []byte, off int64) (int, error) {
	start := b.Clock.Now()
	n, err := fs.readImpl(b, fd, dst, off)
	fs.record(b, trace.OpRead, fs.pathOf(fd), off, int64(n), start, err)
	return n, err
}

// Write implements gwrite; see writeImpl for semantics.
func (fs *FS) Write(b *gpu.Block, fd int, src []byte, off int64) (int, error) {
	start := b.Clock.Now()
	n, err := fs.writeImpl(b, fd, src, off)
	fs.record(b, trace.OpWrite, fs.pathOf(fd), off, int64(n), start, err)
	return n, err
}

// Fsync implements gfsync; see fsyncImpl for semantics.
func (fs *FS) Fsync(b *gpu.Block, fd int) error {
	start := b.Clock.Now()
	err := fs.fsyncImpl(b, fd)
	fs.record(b, trace.OpFsync, fs.pathOf(fd), 0, 0, start, err)
	return err
}

// Fstat implements gfstat; see fstatImpl for semantics.
func (fs *FS) Fstat(b *gpu.Block, fd int) (Info, error) {
	start := b.Clock.Now()
	info, err := fs.fstatImpl(b, fd)
	fs.record(b, trace.OpFstat, fs.pathOf(fd), 0, 0, start, err)
	return info, err
}

// Ftruncate implements gftruncate; see ftruncateImpl for semantics.
func (fs *FS) Ftruncate(b *gpu.Block, fd int, size int64) error {
	start := b.Clock.Now()
	err := fs.ftruncateImpl(b, fd, size)
	fs.record(b, trace.OpFtruncate, fs.pathOf(fd), size, 0, start, err)
	return err
}

// Unlink implements gunlink; see unlinkImpl for semantics.
func (fs *FS) Unlink(b *gpu.Block, path string) error {
	start := b.Clock.Now()
	err := fs.unlinkImpl(b, path)
	fs.record(b, trace.OpUnlink, path, 0, 0, start, err)
	return err
}

// Mmap implements gmmap; see mmapImpl for semantics.
func (fs *FS) Mmap(b *gpu.Block, fd int, off, length int64) (*Mapping, error) {
	start := b.Clock.Now()
	m, err := fs.mmapImpl(b, fd, off, length)
	var n int64
	if m != nil {
		n = int64(len(m.Data))
	}
	fs.record(b, trace.OpMmap, fs.pathOf(fd), off, n, start, err)
	return m, err
}

// Munmap implements gmunmap; see munmapImpl for semantics.
func (m *Mapping) Munmap(b *gpu.Block) error {
	start := b.Clock.Now()
	path := ""
	if m.f != nil {
		path = m.f.path
	}
	err := m.munmapImpl(b)
	m.fs.record(b, trace.OpMunmap, path, m.FileOffset, 0, start, err)
	return err
}

// Msync implements gmsync; see msyncImpl for semantics.
func (m *Mapping) Msync(b *gpu.Block) error {
	start := b.Clock.Now()
	path := ""
	if m.f != nil {
		path = m.f.path
	}
	err := m.msyncImpl(b)
	m.fs.record(b, trace.OpMsync, path, m.FileOffset, int64(len(m.Data)), start, err)
	return err
}
