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
// host-fs calls run on which clock, the staging copies, and the link
// charges.

// Reply carries a syscall's typed results back to the issuing client.
// Result scalars ride the response slot; bulk data never does (it is
// DMA'd straight to the device buffers referenced by the call).
type Reply struct {
	FD      int64
	Info    hostfs.FileInfo
	N       int
	Ns      []int
	Valid   bool
	Dirents []hostfs.FileInfo
	Next    int64
	EOF     bool
	// Gen is the generation the host file has with the call's modification
	// applied: what a stat issued right after it would have read. The two
	// mutating file syscalls (SysWrite, SysTruncate) fill it, so a caching
	// GPU learns what its own write made of the file from the write's reply.
	Gen int64
	// WaitAt is a would-block hint: the virtual time at which the
	// blocking condition was last known to clear (pipe space freed).
	WaitAt simtime.Time
}

// call is one in-flight syscall: the transport view it was issued on, the
// frame as decoded from the wire, the out-of-band device buffers, and the
// reply under construction.
type call struct {
	rpc   *rpc.Client
	fr    *Frame
	dsts  [][]byte // read destination segments (device memory)
	src   []byte   // write source (device memory)
	reply Reply

	// seg and n back dsts and reply.Ns of a one-segment read, so the demand
	// fault allocates nothing for its vector.
	seg [1][]byte
	n   [1]int

	// file and stage carry a write from its first stretch to its second:
	// the resolved host file and the staging buffer the D2H transfer lands in.
	file  *hostfs.File
	stage *[]byte
}

// readCall builds the call of a read into dsts, copying the vector (not the
// bytes) so the caller's need not outlive the call.
func readCall(dsts [][]byte) *call {
	c := &call{}
	c.dsts = append(c.seg[:0], dsts...)
	return c
}

// handlerFunc is one syscall-table entry.
type handlerFunc func(s *Service, c *call, cclk *simtime.Clock) (simtime.Time, error)

// Service is the host-side syscall service shared by every GPU of a
// system: the syscall table, the daemon's descriptor table, and the pipe
// table. It layers over the rpc daemon, which keeps the worker pool and
// the consistency layer.
type Service struct {
	srv   *rpc.Server
	table [numSysno]handlerFunc
	// resume holds the second stretch of the syscalls whose host work
	// continues once a DMA they started has landed (rpc.Request.Resume); nil
	// for every syscall that is one stretch.
	resume [numSysno]handlerFunc
	pipes  pipeTable

	// zeroCopy says the read destinations are pinned for DMA, so sysRead
	// charges its transfer without the staging pass through host DRAM. It
	// selects a charge only; the bytes move the same way either way.
	zeroCopy bool

	mu     sync.Mutex
	fds    map[int64]*hostfs.File
	nextFd int64
}

// NewService builds the syscall table over the given rpc daemon.
// zeroCopyRead selects the read handler's DMA charge (the host half of
// core.Options.ZeroCopyRead).
func NewService(srv *rpc.Server, zeroCopyRead bool) *Service {
	s := &Service{srv: srv, zeroCopy: zeroCopyRead, fds: make(map[int64]*hostfs.File), nextFd: 3}
	s.pipes.init()
	s.table = [numSysno]handlerFunc{
		SysOpen:      (*Service).sysOpen,
		SysClose:     (*Service).sysClose,
		SysRead:      (*Service).sysRead,
		SysWrite:     (*Service).sysWrite,
		SysTruncate:  (*Service).sysTruncate,
		SysUnlink:    (*Service).sysUnlink,
		SysFsync:     (*Service).sysFsync,
		SysValidate:  (*Service).sysValidate,
		SysReaddir:   (*Service).sysReaddir,
		SysPipeOpen:  (*Service).sysPipeOpen,
		SysPipeRead:  (*Service).sysPipeRead,
		SysPipeWrite: (*Service).sysPipeWrite,
		SysPipeClose: (*Service).sysPipeClose,
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

// readFull reads into buf at off, looping past injected short reads
// (n == 0 is true EOF). With no injector the single pread below is already
// full-or-EOF, so the loop never iterates and the happy-path timing is
// untouched.
func (s *Service) readFull(cclk *simtime.Clock, f *hostfs.File, buf []byte, off int64) (int, error) {
	n, err := f.Pread(cclk, buf, off)
	if err != nil || n == len(buf) || !s.srv.FaultInjector().Enabled() {
		return n, err
	}
	for n < len(buf) {
		m, err := f.Pread(cclk, buf[n:], off+int64(n))
		if err != nil {
			return n, err
		}
		if m == 0 {
			break // true EOF
		}
		n += m
	}
	return n, nil
}

// sysOpen opens the file, stats it and — when the call offers destination
// segments and the whole file fits in them — reads it into them, so a small
// file's first page rides with its open instead of costing a second ring
// transaction. The read comes after the stat: the bytes can only be newer than
// the generation the reply reports, never older, and a caching client that
// trusts them under that generation is at worst invalidated early. A read that
// fails leaves the open successful with no counts; the client's own read of
// the file meets the error itself.
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
	if dsts := covering(c.dsts, fi.Size); dsts != nil {
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

// stagingPool recycles the daemon's host-side staging buffers: the contiguous
// one sysRead scatters a multi-segment read from and the one sysWrite lands
// its D2H transfer in. They are only this simulation's way of moving the bytes
// (the modelled staging pass is the DMA charge); nothing reads one after its
// request's last handler returns.
var stagingPool = sync.Pool{New: func() any { return new([]byte) }}

// staging draws a staging buffer of n bytes, contents undefined; the handler
// puts bp back into stagingPool when it returns.
func staging(n int) (bp *[]byte, buf []byte) {
	bp = stagingPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return bp, (*bp)[:n]
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
// (ordering file accesses per ring) — one pread, straight into the destination
// when there is one segment — and hands the bulk transfer to an asynchronous
// DMA channel; a blocking caller's clock advances to DMA completion, while the
// worker is free as soon as the read finishes. The transfer pays a scatter
// descriptor per segment that received bytes: one that end of file left empty
// is not walked. A failed read reports no counts.
func (s *Service) readInto(c *call, cclk *simtime.Clock, f *hostfs.File, off int64, dsts [][]byte) (simtime.Time, error) {
	var n, segs int
	var err error
	if len(dsts) == 1 {
		if n, err = s.readFull(cclk, f, dsts[0], off); err != nil {
			return 0, err
		}
		c.reply.Ns = append(c.n[:0], n)
		segs = 1
	} else {
		total := 0
		for _, d := range dsts {
			total += len(d)
		}
		bp, buf := staging(total)
		defer stagingPool.Put(bp)
		if n, err = s.readFull(cclk, f, buf, off); err != nil {
			return 0, err
		}
		c.reply.Ns = make([]int, len(dsts))
		rest := buf[:n]
		for i, d := range dsts {
			c.reply.Ns[i] = copy(d, rest)
			rest = rest[c.reply.Ns[i]:]
			if c.reply.Ns[i] > 0 {
				segs++
			}
		}
	}
	return c.rpc.Link().ChargeScatter(cclk.Now(), pcie.HostToDevice, int64(n), segs, s.zeroCopy), nil
}

// sysWrite is the first stretch of a write: it resolves the file and starts
// the D2H transfer of len(src) bytes out of device memory on an asynchronous
// DMA channel. The file write needs the bytes, so it is the second stretch
// (sysWriteLanded), ordered after the transfer; the worker is free in
// between, as it is while a read's H2D transfer is in flight.
func (s *Service) sysWrite(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	c.file = f
	var buf []byte
	c.stage, buf = staging(len(c.src))
	copy(buf, c.src)
	return c.rpc.Link().Charge(cclk.Now(), pcie.DeviceToHost, int64(len(c.src))), nil
}

// sysWriteLanded is the second stretch of a write: the transfer has landed
// in the staging buffer and the worker writes it to the host file. The reply
// carries the byte count and the generation the write produced.
func (s *Service) sysWriteLanded(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	defer stagingPool.Put(c.stage)
	n, gen, err := c.file.Pwrite(cclk, (*c.stage)[:len(c.src)], int64(c.fr.Args[1]))
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

// direntWireBytes is the marshaled size of one directory entry in the
// response stream: the fixed scalar fields plus the name.
func direntWireBytes(fi *hostfs.FileInfo) int64 { return 48 + int64(len(fi.Name)) }

func (s *Service) sysReaddir(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	infos, err := s.srv.Layer().FS().ReadDir(c.fr.Path)
	if err != nil {
		return 0, err
	}
	cookie, max := int64(c.fr.Args[0]), int(c.fr.Args[1])
	if cookie < 0 || cookie > int64(len(infos)) {
		return 0, fmt.Errorf("gsys: readdir cookie %d out of range [0,%d]", cookie, len(infos))
	}
	window := infos[cookie:]
	if max > 0 && len(window) > max {
		window = window[:max]
	}
	c.reply.Dirents = window
	c.reply.Next = cookie + int64(len(window))
	if c.reply.Next >= int64(len(infos)) {
		c.reply.Next = -1 // enumeration complete
	}
	var total int64
	for i := range window {
		total += direntWireBytes(&window[i])
	}
	if total == 0 {
		return 0, nil
	}
	return c.rpc.Link().Charge(cclk.Now(), pcie.HostToDevice, total), nil
}
