package gsys

import (
	"errors"
	"io"
	"strconv"
	"sync/atomic"

	"gpufs/internal/hostfs"
	"gpufs/internal/metrics"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// The GPU side of the syscall subsystem: the dispatcher. Every call is
// framed (descriptor + scalars + path + inline payload), encoded to the
// wire form, and submitted on the issuing lane's ring shard; the daemon
// decodes the frame and dispatches through the syscall table.
//
// Ordering classes route differently:
//
//   - OrderStrong calls block: the call holds its lane's clock until the
//     response is delivered, so each strong call on a lane is issued
//     after the previous one completed. That is the whole of strong
//     ordering — there is no fence state to maintain.
//   - OrderRelaxed calls ride the out-of-order completion queue: the
//     block's clock is untouched, results are available through a Future,
//     and the caller joins explicitly with Future.Wait. Detached
//     speculation (prefetch) is relaxed traffic that is intentionally
//     never joined.

// rpcOp maps a syscall to the ring-transport op it rides, which is the
// class the daemon counts it under. The length assignment below is the
// drift guard: a Sysno appended without an entry here fails to compile
// instead of riding the zero Op.
var rpcOp = [...]rpc.Op{
	SysOpen:      rpc.OpOpen,
	SysClose:     rpc.OpClose,
	SysRead:      rpc.OpReadPages,
	SysWrite:     rpc.OpWritePages,
	SysTruncate:  rpc.OpTruncate,
	SysUnlink:    rpc.OpUnlink,
	SysFsync:     rpc.OpFsync,
	SysValidate:  rpc.OpValidate,
	SysReaddir:   rpc.OpReaddir,
	SysPipeOpen:  rpc.OpPipeOpen,
	SysPipeRead:  rpc.OpPipeRead,
	SysPipeWrite: rpc.OpPipeWrite,
	SysPipeClose: rpc.OpPipeClose,
}

var _ [numSysno]struct{} = [len(rpcOp)]struct{}{}

// clientRoot is the state shared by every Bind/Gran view of one GPU's
// syscall client.
type clientRoot struct {
	seq atomic.Uint64

	// latency holds per-op per-ordering-class issue-to-completion
	// histograms; the array stays nil without a metrics registry.
	latency [numSysno][numOrdering]*metrics.Histogram
	strong  atomic.Int64
	relaxed atomic.Int64
}

// Future is the join handle of a relaxed call. The handler has already
// run when the Future is returned — results are available immediately in
// real time — but the call completes at Done() in virtual time, and Wait
// advances the joining block's clock there.
type Future struct {
	call *call
	done simtime.Time
	err  error
}

// Done reports the call's virtual completion time.
func (f *Future) Done() simtime.Time { return f.done }

// Err reports the call's error without joining.
func (f *Future) Err() error { return f.err }

// Reply exposes the call's typed results; valid once issued (relaxed
// handlers run inline in real time).
func (f *Future) Reply() *Reply { return &f.call.reply }

// Wait joins the call: the block's clock advances to the completion time
// and the call's error is returned.
func (f *Future) Wait(blk *simtime.Clock) error {
	if f.err == nil && blk.Now() < f.done {
		blk.AdvanceTo(f.done)
	}
	return f.err
}

// Client is one GPU's syscall endpoint: a thin dispatcher over the GPU's
// rpc ring transport. It is a small value: Bind and Gran derive views by
// copy, one per syscall on the file paths, so a view never reaches the heap
// (no method lets its receiver escape); views share the root's sequence space
// and counters.
type Client struct {
	svc  *Service
	rpc  *rpc.Client
	root *clientRoot
	gran Granularity
	lane int
}

// NewClient creates the syscall endpoint for one GPU over its rpc
// endpoint.
func NewClient(svc *Service, rc *rpc.Client) *Client {
	c := &Client{svc: svc, rpc: rc, root: &clientRoot{}, gran: GranBlock}
	if reg := svc.srv.Metrics(); reg != nil {
		gpu := strconv.Itoa(rc.GPUID())
		reg.SetHelp(sysLatencyMetric,
			"Virtual issue-to-completion syscall latency per op and ordering class")
		for sys := Sysno(0); sys < numSysno; sys++ {
			for ord := Ordering(0); ord < numOrdering; ord++ {
				c.root.latency[sys][ord] = reg.DurationHistogram(sysLatencyMetric,
					"gpu", gpu, "op", sys.String(), "ordering", ord.String())
			}
		}
	}
	return c
}

const sysLatencyMetric = "gpufs_sys_latency_seconds"

// Bind returns a view of the client whose calls ride the ring shard that
// lane hashes to.
func (c Client) Bind(lane int) Client {
	c.lane = lane
	c.rpc = c.rpc.Bind(lane)
	return c
}

// Gran returns a view whose descriptors carry the given issue
// granularity.
func (c Client) Gran(g Granularity) Client {
	c.gran = g
	return c
}

// RPC returns the underlying transport endpoint of this view.
func (c Client) RPC() *rpc.Client { return c.rpc }

// StrongCalls and RelaxedCalls report how many calls each ordering class
// has dispatched on this GPU.
func (c Client) StrongCalls() int64  { return c.root.strong.Load() }
func (c Client) RelaxedCalls() int64 { return c.root.relaxed.Load() }

func (c Client) observe(sys Sysno, ord Ordering, start, end simtime.Time) {
	if h := c.root.latency[sys][ord]; h != nil {
		h.ObserveSpan(start, end)
	}
}

// frame builds and encodes the wire frame of one call.
func (c Client) frame(d Desc, args []uint64, path string, data []byte) []byte {
	return (&Frame{
		Desc: d, Lane: int32(c.lane), Seq: c.root.seq.Add(1),
		Args: args, Path: path, Data: data,
	}).Encode()
}

// requestFor wraps a call for the ring transport, stamping it with the
// transport view it rides: the daemon side decodes the wire frame (a retry
// decodes again — the frame is immutable) and dispatches through the
// syscall table. A syscall whose host work continues after a DMA (the
// service's resume table) becomes a request of two stretches.
func (c Client) requestFor(sys Sysno, wire []byte, cl *call) rpc.Request {
	cl.rpc = c.rpc
	svc := c.svc
	req := rpc.Request{Handle: func(cclk *simtime.Clock) (simtime.Time, error) {
		fr, err := DecodeFrame(wire)
		if err != nil {
			return 0, err
		}
		cl.fr = fr
		return svc.dispatch(cl, cclk)
	}}
	if resume := svc.resume[sys]; resume != nil {
		req.Resume = func(cclk *simtime.Clock) (simtime.Time, error) { return resume(svc, cl, cclk) }
	}
	return req
}

// do dispatches one strong-ordered blocking call: the lane's clock
// advances to response delivery.
func (c Client) do(blk *simtime.Clock, sys Sysno, args []uint64, path string, data []byte, cl *call) error {
	d := Desc{Sysno: sys, Gran: c.gran, Order: OrderStrong, Block: CallBlocking}
	wire := c.frame(d, args, path, data)
	c.root.strong.Add(1)
	sent := blk.Now()
	err := c.rpc.Submit(blk, rpcOp[sys], c.requestFor(sys, wire, cl))
	c.observe(sys, OrderStrong, sent, blk.Now())
	return err
}

// doRelaxed dispatches one relaxed non-blocking call: the block's clock
// is untouched and the returned Future joins it.
func (c Client) doRelaxed(blk *simtime.Clock, sys Sysno, args []uint64, path string, data []byte, cl *call) *Future {
	d := Desc{Sysno: sys, Gran: c.gran, Order: OrderRelaxed, Block: CallNonBlocking}
	wire := c.frame(d, args, path, data)
	c.root.relaxed.Add(1)
	sent := blk.Now()
	done, err := c.rpc.SubmitAsync(blk, rpcOp[sys], c.requestFor(sys, wire, cl))
	if err == nil {
		c.observe(sys, OrderRelaxed, sent, done)
	}
	return &Future{call: cl, done: done, err: err}
}

// --- The file syscalls ---

// Open opens the host file, returning a daemon descriptor handle and the
// file's metadata. dsts, which may be nil, are device memory segments offered
// for the file's content: a file that is not empty and fits in them whole is
// read into them by the same transaction (one host read, one scattered DMA
// that the lane's clock waits for, as Read's), and the bytes that landed in
// each segment the file reached are returned. They are nil when nothing was
// carried — the file is empty or larger than the offer, or the read failed,
// which the open survives — and the contents of dsts are then undefined.
func (c Client) Open(blk *simtime.Clock, path string, flags int, mode hostfs.Mode, dsts [][]byte) (int64, hostfs.FileInfo, []int, error) {
	cl := readCall(dsts)
	if err := c.do(blk, SysOpen, []uint64{uint64(flags), uint64(mode)}, path, nil, cl); err != nil {
		return -1, hostfs.FileInfo{}, nil, err
	}
	return cl.reply.FD, cl.reply.Info, cl.reply.Ns, nil
}

// OpenRelaxed is the relaxed non-blocking open behind open-ahead: the
// handler runs immediately in real time (the handle, the metadata and the
// counts of a carried read, Reply.Ns, are valid on return) while the block's
// clock is untouched; the returned Future completes at the open's virtual
// completion, which is when carried bytes become usable. Never retried; on a
// transient fault the caller falls back to a strong Open.
func (c Client) OpenRelaxed(blk *simtime.Clock, path string, flags int, mode hostfs.Mode, dsts [][]byte) *Future {
	return c.doRelaxed(blk, SysOpen, []uint64{uint64(flags), uint64(mode)}, path, nil, readCall(dsts))
}

// Close closes a daemon descriptor handle.
func (c Client) Close(blk *simtime.Clock, fd int64) error {
	return c.do(blk, SysClose, []uint64{uint64(fd)}, "", nil, &call{})
}

// Read reads the contiguous file extent starting at off into the device
// memory segments dsts, in order: one ring transaction, one host read and
// one DMA scattered over the segments, whatever their number. It returns the
// bytes that landed in each segment (short, then zero, past end of file).
// Read is strong: the lane's clock blocks until the DMA lands, and the
// transport retries transient faults. On error no counts are returned and
// the contents of dsts are undefined — the caller must not publish them.
func (c Client) Read(blk *simtime.Clock, fd, off int64, dsts [][]byte) ([]int, error) {
	cl := readCall(dsts)
	if err := c.do(blk, SysRead, []uint64{uint64(fd), uint64(off)}, "", nil, cl); err != nil {
		return nil, err
	}
	return cl.reply.Ns, nil
}

// ReadAsync is Read as detached relaxed speculation (prefetch, batched
// fetch): the block does not wait and nobody joins; the returned time says
// when the segments become usable. Never retried; the error contract is
// Read's.
func (c Client) ReadAsync(blk *simtime.Clock, fd, off int64, dsts [][]byte) ([]int, simtime.Time, error) {
	cl := readCall(dsts)
	fut := c.doRelaxed(blk, SysRead, []uint64{uint64(fd), uint64(off)}, "", nil, cl)
	if fut.err != nil {
		return nil, 0, fut.err
	}
	return cl.reply.Ns, fut.done, nil
}

// WritePages DMAs len(src) bytes out of device memory and writes them to
// the host file at off. It returns the byte count and the generation the
// host file has with the write applied (Reply.Gen).
func (c Client) WritePages(blk *simtime.Clock, fd, off int64, src []byte) (int, int64, error) {
	cl := &call{src: src}
	if err := c.do(blk, SysWrite, []uint64{uint64(fd), uint64(off)}, "", nil, cl); err != nil {
		return 0, 0, err
	}
	return cl.reply.N, cl.reply.Gen, nil
}

// Truncate truncates the host file behind fd and returns the generation the
// file has with the truncation applied (Reply.Gen).
func (c Client) Truncate(blk *simtime.Clock, fd, size int64) (int64, error) {
	cl := &call{}
	if err := c.do(blk, SysTruncate, []uint64{uint64(fd), uint64(size)}, "", nil, cl); err != nil {
		return 0, err
	}
	return cl.reply.Gen, nil
}

// Unlink removes the file at path on the host.
func (c Client) Unlink(blk *simtime.Clock, path string) error {
	return c.do(blk, SysUnlink, nil, path, nil, &call{})
}

// Fsync forces the host file to stable storage.
func (c Client) Fsync(blk *simtime.Clock, fd int64) error {
	return c.do(blk, SysFsync, []uint64{uint64(fd)}, "", nil, &call{})
}

// Validate asks the consistency layer whether the GPU's cached copy of
// ino at generation gen is still current. A call that fails (retry budget
// exhausted under faults) reports "not valid" — the conservative answer.
func (c Client) Validate(blk *simtime.Clock, ino, gen int64) bool {
	cl := &call{}
	err := c.do(blk, SysValidate, []uint64{uint64(ino), uint64(gen)}, "", nil, cl)
	return err == nil && cl.reply.Valid
}

// The consistency-metadata operations below are not ring syscalls: they
// ride write-shared memory or piggyback on other traffic.

// PeekCost is what PeekValid charges the caller: one uncached read over the
// bus.
const PeekCost = 2 * simtime.Microsecond

// PeekValid checks the GPU's cached copy of ino against the host through
// the generation table the consistency module keeps in write-shared memory
// — a single PCIe read, with no daemon involvement (this is what makes
// reopening a closed-file-table entry cheap, §4.1/§5.1.3).
func (c Client) PeekValid(blk *simtime.Clock, ino, gen int64) bool {
	blk.Advance(PeekCost)
	return c.svc.srv.Layer().PeekValid(c.rpc.GPUID(), ino, gen)
}

// RecordCached registers this GPU as caching ino at generation gen with the
// consistency layer. Metadata-only; piggybacked on other traffic in the
// real system, so it costs no separate round trip here.
func (c Client) RecordCached(ino, gen int64) {
	c.svc.srv.Layer().RecordCached(c.rpc.GPUID(), ino, gen)
}

// Forget drops the consistency layer's record of this GPU caching ino.
func (c Client) Forget(ino int64) { c.svc.srv.Layer().Forget(c.rpc.GPUID(), ino) }

// BeginWrite registers this GPU as a writer of ino (single-writer unless
// multiWriter).
func (c Client) BeginWrite(ino int64, multiWriter bool) error {
	return c.svc.srv.Layer().BeginWrite(c.rpc.GPUID(), ino, multiWriter)
}

// EndWrite releases the writer registration.
func (c Client) EndWrite(ino int64) { c.svc.srv.Layer().EndWrite(c.rpc.GPUID(), ino) }

// --- Directory and pipe syscalls ---

// Readdir enumerates one page of directory entries starting at cookie
// (0 for the first call), returning up to max entries and the next
// cookie (-1 when the enumeration is complete).
func (c Client) Readdir(blk *simtime.Clock, path string, cookie int64, max int) ([]hostfs.FileInfo, int64, error) {
	cl := &call{}
	if err := c.do(blk, SysReaddir, []uint64{uint64(cookie), uint64(max)}, path, nil, cl); err != nil {
		return nil, 0, err
	}
	return cl.reply.Dirents, cl.reply.Next, nil
}

// PipeOpen opens (creating on first open) the named pipe with the given
// buffer capacity and declared writer count, returning its handle. Every
// opener must declare the same capacity and writer count.
func (c Client) PipeOpen(blk *simtime.Clock, name string, mode PipeMode, capBytes, writers int) (int64, error) {
	cl := &call{}
	err := c.do(blk, SysPipeOpen, []uint64{uint64(mode), uint64(capBytes), uint64(writers)}, name, nil, cl)
	if err != nil {
		return -1, err
	}
	return cl.reply.FD, nil
}

// PipeWrite writes data as one atomic record, blocking (on virtual time)
// while the pipe lacks room for the whole record.
func (c Client) PipeWrite(blk *simtime.Clock, pd int64, data []byte) (int, error) {
	for {
		cl := &call{}
		err := c.do(blk, SysPipeWrite, []uint64{uint64(pd)}, "", data, cl)
		if err == nil {
			return cl.reply.N, nil
		}
		if !errors.Is(err, ErrPipeFull) {
			return 0, err
		}
		// Would block: wait in real time for space, advance to the
		// virtual time it freed, and poll again with a fresh request.
		p, perr := c.svc.pipes.get(pd)
		if perr != nil {
			return 0, perr
		}
		if wakeAt := p.waitWritable(len(data)); blk.Now() < wakeAt {
			blk.AdvanceTo(wakeAt)
		}
	}
}

// PipeRead reads up to len(dst) buffered bytes, blocking (on virtual
// time) while the pipe is empty with live writers. At end of stream —
// declared writers all closed, buffer drained — it returns io.EOF.
func (c Client) PipeRead(blk *simtime.Clock, pd int64, dst []byte) (int, error) {
	for {
		cl := readCall([][]byte{dst})
		err := c.do(blk, SysPipeRead, []uint64{uint64(pd)}, "", nil, cl)
		if err == nil {
			if cl.reply.EOF {
				return 0, io.EOF
			}
			return cl.reply.N, nil
		}
		if !errors.Is(err, ErrPipeEmpty) {
			return 0, err
		}
		p, perr := c.svc.pipes.get(pd)
		if perr != nil {
			return 0, perr
		}
		if wakeAt := p.waitReadable(); blk.Now() < wakeAt {
			blk.AdvanceTo(wakeAt)
		}
	}
}

// PipeClose closes one end of the pipe. Closing the last declared writer
// end releases readers into EOF once the buffer drains.
func (c Client) PipeClose(blk *simtime.Clock, pd int64, mode PipeMode) error {
	return c.do(blk, SysPipeClose, []uint64{uint64(pd), uint64(mode)}, "", nil, &call{})
}
