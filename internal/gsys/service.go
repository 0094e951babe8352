package gsys

import (
	"fmt"
	"sync"

	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// The host side of the syscall subsystem: a table of registered handlers
// indexed by Sysno. A handler runs on a daemon worker's clock with the
// decoded request frame and the call's out-of-band device buffers, and
// returns the completion time of any asynchronous DMA it started. These
// handlers are the only place a file op's host work is defined: which
// host-fs calls run on which clock, and the link charges.

// Reply carries a syscall's typed results back to the issuing client.
// Result scalars ride the response slot; bulk data never does (it is
// DMA'd straight to the device buffers referenced by the call).
type Reply struct {
	FD    int64
	Info  hostfs.FileInfo
	N     int
	Ns    []int
	Valid bool
	// Gen is the generation the host file has with the call's modification
	// applied: what a stat issued right after it would have read. The two
	// mutating file syscalls (SysWrite, SysTruncate) fill it, so a caching
	// GPU learns what its own write made of the file from the write's reply.
	Gen int64
}

// call is one in-flight syscall: the transport view it was issued on, the
// frame as decoded from the wire, the out-of-band device buffers, and the
// reply under construction.
type call struct {
	rpc *rpc.Client
	// pinned is the issuing client's: the read destinations are pinned for
	// DMA (Client.pinned).
	pinned bool
	fr     *Frame
	dsts   [][]byte // read destination segments (device memory)
	srcs   [][]byte // write source segments (device memory)
	reply  Reply

	// seg backs dsts or srcs of a one-segment call and n reply.Ns of a
	// one-segment read, so a demand fault or a one-page write-back allocates
	// nothing for its vector.
	seg [1][]byte
	n   [1]int
	// vec backs dsts of a longer read, drawn from readVecs.
	vec *[][]byte

	// file carries a write from its first stretch to its second: the
	// resolved host file.
	file *hostfs.File
}

// readVecs recycles the vector copies of multi-segment reads (readCall).
var readVecs = sync.Pool{New: func() any { return new([][]byte) }}

// readCall builds the call of a read into dsts, copying the vector (not the
// bytes) so the caller's need not outlive the call. A longer vector than seg
// holds is copied into a recycled one, which done hands back: a read's handler
// runs before the client returns, and nothing reads dsts after it.
func readCall(dsts [][]byte) *call {
	c := &call{}
	if len(dsts) <= len(c.seg) {
		c.dsts = append(c.seg[:0], dsts...)
		return c
	}
	c.vec = readVecs.Get().(*[][]byte)
	c.dsts = append((*c.vec)[:0], dsts...)
	return c
}

// done ends a read call's use of its vector.
func (c *call) done() {
	if c.vec != nil {
		*c.vec = c.dsts[:0]
		readVecs.Put(c.vec)
		c.vec, c.dsts = nil, nil
	}
}

// writeCall builds the call of a write gathered from srcs, copying the vector
// as readCall does.
func writeCall(srcs [][]byte) *call {
	c := &call{}
	c.srcs = append(c.seg[:0], srcs...)
	return c
}

// handlerFunc is one syscall-table entry.
type handlerFunc func(s *Service, c *call, cclk *simtime.Clock) (simtime.Time, error)

// Service is the host-side syscall service shared by every GPU of a
// system: the syscall table and the daemon's descriptor table. It layers
// over the rpc daemon, which keeps the worker pool and the consistency
// layer.
type Service struct {
	srv   *rpc.Server
	table [numSysno]handlerFunc
	// resume holds the second stretch of the syscalls whose host work
	// continues once a DMA they started has landed (rpc.Request.Resume); nil
	// for every syscall that is one stretch.
	resume [numSysno]handlerFunc

	mu     sync.Mutex
	fds    map[int64]*hostfs.File
	nextFd int64
}

// NewService builds the syscall table over the given rpc daemon.
func NewService(srv *rpc.Server) *Service {
	s := &Service{srv: srv, fds: make(map[int64]*hostfs.File), nextFd: 3}
	s.table = [numSysno]handlerFunc{
		SysOpen:     (*Service).sysOpen,
		SysClose:    (*Service).sysClose,
		SysRead:     (*Service).sysRead,
		SysWrite:    (*Service).sysWrite,
		SysTruncate: (*Service).sysTruncate,
		SysUnlink:   (*Service).sysUnlink,
		SysFsync:    (*Service).sysFsync,
		SysValidate: (*Service).sysValidate,
	}
	s.resume[SysWrite] = (*Service).sysWriteLanded
	return s
}

// dispatch routes a decoded frame to its table entry.
func (s *Service) dispatch(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	h := s.table[c.fr.Desc.Sysno]
	if h == nil {
		return 0, fmt.Errorf("gsys: no handler registered for %v", c.fr.Desc.Sysno)
	}
	return h(s, c, cclk)
}

// file resolves a descriptor handle to its host file.
func (s *Service) file(fd int64) (*hostfs.File, error) {
	s.mu.Lock()
	f, ok := s.fds[fd]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gsys: unknown host fd %d", fd)
	}
	return f, nil
}

// readFull reads the extent at off into dsts, in order, and under an injector
// preadvs the rest again from wherever a short read stopped (m == 0 is true
// EOF). With no injector the first preadv is already full-or-EOF, so the loop
// never iterates and the happy-path timing is untouched.
func (s *Service) readFull(cclk *simtime.Clock, f *hostfs.File, dsts [][]byte, off int64) (int, error) {
	n := 0
	for rest := dsts; rest != nil; {
		m, err := f.Preadv(cclk, rest, off+int64(n))
		if err != nil {
			return n, err
		}
		n += m
		if m == 0 || !s.srv.FaultInjector().Enabled() {
			break
		}
		rest = past(rest, m)
	}
	return n, nil
}

// past is the part of the vector dsts after its first n bytes, nil when
// nothing is left.
func past(dsts [][]byte, n int) [][]byte {
	for i, d := range dsts {
		if n < len(d) {
			return append([][]byte{d[n:]}, dsts[i+1:]...)
		}
		n -= len(d)
	}
	return nil
}

// sysOpen opens the file, stats it and — when the call offers destination
// segments and the whole file fits in them, or Args[2] asks for the file's head
// — reads it into them, so a file's first pages ride with its open instead of
// costing a second ring transaction. The head is as much of the file as the
// segments hold; a frame of two arguments asks for none. The read comes after
// the stat: the bytes can only be newer than the generation the reply reports,
// never older, and a caching client that trusts them under that generation is
// at worst invalidated early. A read that fails leaves the open successful
// with no counts; the client's own read of the file meets the error itself.
func (s *Service) sysOpen(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.Layer().FS().Open(cclk, c.fr.Path, int(c.fr.Args[0]), hostfs.Mode(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	fi, err := f.Fstat(cclk)
	if err != nil {
		f.Close()
		return 0, err
	}
	s.mu.Lock()
	c.reply.FD = s.nextFd
	s.nextFd++
	s.fds[c.reply.FD] = f
	s.mu.Unlock()
	c.reply.Info = fi
	size := fi.Size
	if len(c.fr.Args) > 2 && c.fr.Args[2] != 0 {
		size = min(size, totalBytes(c.dsts))
	}
	if dsts := covering(c.dsts, size); dsts != nil {
		if done, err := s.readInto(c, cclk, f, 0, dsts); err == nil {
			return done, nil
		}
	}
	return 0, nil
}

// covering returns the leading segments of dsts cut to hold exactly size
// bytes, or nil when size is zero or more than dsts hold.
func covering(dsts [][]byte, size int64) [][]byte {
	if size <= 0 {
		return nil
	}
	for i, d := range dsts {
		if size <= int64(len(d)) {
			return append(dsts[:i:i], d[:size])
		}
		size -= int64(len(d))
	}
	return nil
}

// totalBytes is the bytes segs hold.
func totalBytes(segs [][]byte) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s))
	}
	return n
}

func (s *Service) sysClose(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	fd := int64(c.fr.Args[0])
	s.mu.Lock()
	f, ok := s.fds[fd]
	delete(s.fds, fd)
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("gsys: unknown host fd %d", fd)
	}
	return 0, f.Close()
}

// sysRead reads the contiguous file extent at Args[1] and DMAs it into the
// call's destination segments.
func (s *Service) sysRead(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return s.readInto(c, cclk, f, int64(c.fr.Args[1]), c.dsts)
}

// readInto is the one host read: the contiguous extent of f at off goes into
// the device memory segments dsts, in order, and the reply reports the bytes
// each received. The daemon worker performs the file read synchronously
// (ordering file accesses per ring) — one preadv, straight into the
// destination segments — and hands the bulk transfer to an asynchronous DMA
// channel; a blocking caller's clock advances to DMA completion, while the
// worker is free as soon as the read finishes. A failed read reports no
// counts.
func (s *Service) readInto(c *call, cclk *simtime.Clock, f *hostfs.File, off int64, dsts [][]byte) (simtime.Time, error) {
	n, err := s.readFull(cclk, f, dsts, off)
	if err != nil {
		return 0, err
	}
	ns := c.n[:0]
	if len(dsts) > len(c.n) {
		ns = make([]int, 0, len(dsts))
	}
	segs, rest := 0, n
	for _, d := range dsts {
		got := min(len(d), rest)
		ns = append(ns, got)
		rest -= got
		if got > 0 {
			segs++
		}
	}
	c.reply.Ns = ns
	// A scatter descriptor per segment that received bytes, and never fewer
	// than one: a read end of file left wholly empty is still a transaction.
	return c.rpc.Link().ChargeScatter(cclk.Now(), pcie.HostToDevice, int64(n), max(segs, 1), c.pinned), nil
}

// sysWrite is the first stretch of a write: it resolves the file and starts
// the D2H transfer out of the device memory segments on an asynchronous DMA
// channel, gathered in order into host memory; each segment past the first
// pays its descriptor, as a scattered read's does. The file write needs the
// bytes, so it is the second stretch (sysWriteLanded), ordered after the
// transfer; the worker is free in between, as it is while a read's H2D
// transfer is in flight.
func (s *Service) sysWrite(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	c.file = f
	return c.rpc.Link().ChargeScatter(cclk.Now(), pcie.DeviceToHost, totalBytes(c.srcs), len(c.srcs), false), nil
}

// sysWriteLanded is the second stretch of a write: the transfer has landed
// and the worker writes it to the host file with one pwritev. The segments
// stand in for the landed bytes: the caller blocks until the reply, so they
// hold what was transferred. The reply carries the byte count and the
// generation the write produced.
func (s *Service) sysWriteLanded(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	n, gen, err := c.file.Pwritev(cclk, c.srcs, int64(c.fr.Args[1]))
	c.reply.N, c.reply.Gen = n, gen
	return 0, err
}

func (s *Service) sysTruncate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	gen, err := f.Ftruncate(cclk, int64(c.fr.Args[1]))
	c.reply.Gen = gen
	return 0, err
}

func (s *Service) sysUnlink(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	return 0, s.srv.Layer().FS().Unlink(c.fr.Path)
}

func (s *Service) sysFsync(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Fsync(cclk)
}

func (s *Service) sysValidate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	c.reply.Valid = s.srv.Layer().Validate(c.rpc.GPUID(), int64(c.fr.Args[0]), int64(c.fr.Args[1]))
	return 0, nil
}
