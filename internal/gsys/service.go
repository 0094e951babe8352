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
// indexed by Sysno, replacing the protocol layer's hard-coded typed
// operations. A handler runs on a daemon worker's clock with the decoded
// request frame and the call's out-of-band device buffers, and returns
// the completion time of any asynchronous DMA it started. The file-op
// handler bodies mirror the rpc protocol layer's exactly — same staging
// copies, same link charges, same host-fs calls on the same clocks — so
// routing the existing file API through the table is timing-identical.
// Both layers consult the server's ZeroCopyRead flag the same way, so the
// zero-copy read path (pread into pinned frames, ChargePinned) stays
// mirrored too.

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
	// WaitAt is a would-block hint: the virtual time at which the
	// blocking condition was last known to clear (pipe space freed).
	WaitAt simtime.Time
}

// call is one in-flight syscall: the client view that issued it, the
// frame as decoded from the wire, the out-of-band device buffers, and the
// reply under construction.
type call struct {
	cli   *Client
	fr    *Frame
	dst   []byte   // read destination (device memory)
	dsts  [][]byte // vectored read destinations
	src   []byte   // write source (device memory)
	reply Reply
}

// handlerFunc is one syscall-table entry.
type handlerFunc func(s *Service, c *call, cclk *simtime.Clock) (simtime.Time, error)

// Service is the host-side syscall service shared by every GPU of a
// system: the syscall table plus subsystem state that is not per-file
// (the pipe table). It layers over the rpc daemon, which keeps the
// descriptor table, worker pool, and consistency layer.
type Service struct {
	srv   *rpc.Server
	table [numSysno]handlerFunc
	pipes pipeTable
}

// NewService builds the syscall table over the given rpc daemon.
func NewService(srv *rpc.Server) *Service {
	s := &Service{srv: srv}
	s.pipes.init()
	s.table = [numSysno]handlerFunc{
		SysOpen:      (*Service).sysOpen,
		SysClose:     (*Service).sysClose,
		SysRead:      (*Service).sysRead,
		SysReadVec:   (*Service).sysReadVec,
		SysWrite:     (*Service).sysWrite,
		SysTruncate:  (*Service).sysTruncate,
		SysUnlink:    (*Service).sysUnlink,
		SysStat:      (*Service).sysStat,
		SysFsync:     (*Service).sysFsync,
		SysValidate:  (*Service).sysValidate,
		SysReaddir:   (*Service).sysReaddir,
		SysPipeOpen:  (*Service).sysPipeOpen,
		SysPipeRead:  (*Service).sysPipeRead,
		SysPipeWrite: (*Service).sysPipeWrite,
		SysPipeClose: (*Service).sysPipeClose,
	}
	return s
}

// Server returns the rpc daemon under the syscall table.
func (s *Service) Server() *rpc.Server { return s.srv }

// dispatch routes a decoded frame to its table entry.
func (s *Service) dispatch(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	h := s.table[c.fr.Desc.Sysno]
	if h == nil {
		return 0, fmt.Errorf("gsys: no handler registered for %v", c.fr.Desc.Sysno)
	}
	return h(s, c, cclk)
}

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
	c.reply.FD, c.reply.Info = s.srv.AllocFD(f), fi
	return 0, nil
}

func (s *Service) sysClose(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f := s.srv.ReleaseFD(int64(c.fr.Args[0]))
	if f == nil {
		return 0, fmt.Errorf("gsys: unknown host fd %d", int64(c.fr.Args[0]))
	}
	return 0, f.Close()
}

func (s *Service) sysRead(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	if s.srv.ZeroCopyRead() {
		// Zero-copy (ISSUE 8): the daemon preads straight into the pinned
		// page frame the GPU supplied, so the DMA charge skips the staging
		// pass on the host memory bus.
		n, err := c.cli.rpc.ReadFull(cclk, f, c.dst, int64(c.fr.Args[1]))
		if err != nil {
			return 0, err
		}
		c.reply.N = n
		return c.cli.rpc.Link().ChargePinned(cclk.Now(), pcie.HostToDevice, int64(n)), nil
	}
	staging := make([]byte, len(c.dst)) // pinned staging buffer
	n, err := c.cli.rpc.ReadFull(cclk, f, staging, int64(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	copy(c.dst[:n], staging[:n])
	c.reply.N = n
	return c.cli.rpc.Link().Charge(cclk.Now(), pcie.HostToDevice, int64(n)), nil
}

// stagingPool recycles sysReadVec's contiguous read buffer. The buffer is
// only this simulation's scattering mechanism (one pread, then a copy-out
// per destination frame); nothing reads it after the handler returns.
var stagingPool = sync.Pool{New: func() any { return new([]byte) }}

func (s *Service) sysReadVec(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, d := range c.dsts {
		total += len(d)
	}
	bp := stagingPool.Get().(*[]byte)
	defer stagingPool.Put(bp)
	if cap(*bp) < total {
		*bp = make([]byte, total)
	}
	staging := (*bp)[:total]
	n, err := c.cli.rpc.ReadFull(cclk, f, staging, int64(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	ns := make([]int, len(c.dsts))
	got := 0
	for i, d := range c.dsts {
		take := n - got
		if take > len(d) {
			take = len(d)
		}
		if take < 0 {
			take = 0
		}
		copy(d[:take], staging[got:got+take])
		ns[i] = take
		got += take
	}
	c.reply.Ns = ns
	if s.srv.ZeroCopyRead() {
		// Zero-copy: the host read is a preadv over an iovec of pinned
		// frames (the staging slice above is only this simulation's
		// scattering mechanism, not a modelled copy), so the vectored DMA
		// skips the staging pass.
		return c.cli.rpc.Link().ChargeScatterPinned(cclk.Now(), pcie.HostToDevice, int64(n), len(c.dsts)), nil
	}
	return c.cli.rpc.Link().ChargeScatter(cclk.Now(), pcie.HostToDevice, int64(n), len(c.dsts)), nil
}

func (s *Service) sysWrite(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	staging := make([]byte, len(c.src))
	copy(staging, c.src)
	done := c.cli.rpc.Link().Charge(cclk.Now(), pcie.DeviceToHost, int64(len(c.src)))
	cclk.AdvanceTo(done)
	n, err := f.Pwrite(cclk, staging, int64(c.fr.Args[1]))
	c.reply.N = n
	return 0, err
}

func (s *Service) sysTruncate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Ftruncate(cclk, int64(c.fr.Args[1]))
}

func (s *Service) sysUnlink(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	return 0, s.srv.Layer().FS().Unlink(c.fr.Path)
}

func (s *Service) sysStat(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	fi, err := f.Fstat(cclk)
	c.reply.Info = fi
	return 0, err
}

func (s *Service) sysFsync(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.FileByFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Fsync(cclk)
}

func (s *Service) sysValidate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	c.reply.Valid = s.srv.Layer().Validate(c.cli.rpc.GPUID(), int64(c.fr.Args[0]), int64(c.fr.Args[1]))
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
	return c.cli.rpc.Link().Charge(cclk.Now(), pcie.HostToDevice, total), nil
}
