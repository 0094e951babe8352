package gsys

import (
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
	SysOpen:     rpc.OpOpen,
	SysClose:    rpc.OpClose,
	SysRead:     rpc.OpReadPages,
	SysWrite:    rpc.OpWritePages,
	SysTruncate: rpc.OpTruncate,
	SysUnlink:   rpc.OpUnlink,
	SysFsync:    rpc.OpFsync,
	SysValidate: rpc.OpValidate,
}

var _ [numSysno]struct{} = [len(rpcOp)]struct{}{}

// clientRoot is the state shared by every Bind view of one GPU's syscall
// client.
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
// rpc ring transport. It is a small value: Bind derives views by copy, one
// per syscall on the file paths, so a view never reaches the heap
// (no method lets its receiver escape); views share the root's sequence space
// and counters.
type Client struct {
	svc  *Service
	rpc  *rpc.Client
	root *clientRoot
	lane int
	// pinned says the GPU's read destinations are pinned for DMA, so a read
	// is charged without the staging pass through host DRAM. It selects a
	// charge only; the bytes move the same way either way.
	pinned bool
}

// NewClient creates the syscall endpoint for one GPU over its rpc
// endpoint; pinned says how the GPU's buffer cache is mapped (Client.pinned).
func NewClient(svc *Service, rc *rpc.Client, pinned bool) *Client {
	c := &Client{svc: svc, rpc: rc, root: &clientRoot{}, pinned: pinned}
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
func (c Client) frame(d Desc, args []uint64, path string) []byte {
	return (&Frame{
		Desc: d, Lane: int32(c.lane), Seq: c.root.seq.Add(1),
		Args: args, Path: path,
	}).Encode()
}

// requestFor wraps a call for the ring transport, stamping it with the
// transport view it rides: the daemon side decodes the wire frame (a retry
// decodes again — the frame is immutable) and dispatches through the
// syscall table. A syscall whose host work continues after a DMA (the
// service's resume table) becomes a request of two stretches.
func (c Client) requestFor(sys Sysno, wire []byte, cl *call) rpc.Request {
	cl.rpc, cl.pinned = c.rpc, c.pinned
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
func (c Client) do(blk *simtime.Clock, sys Sysno, args []uint64, path string, cl *call) error {
	d := Desc{Sysno: sys, Gran: GranBlock, Order: OrderStrong, Block: CallBlocking}
	wire := c.frame(d, args, path)
	c.root.strong.Add(1)
	sent := blk.Now()
	err := c.rpc.Submit(blk, rpcOp[sys], c.requestFor(sys, wire, cl))
	c.observe(sys, OrderStrong, sent, blk.Now())
	return err
}

// doRelaxed dispatches one relaxed non-blocking call: the block's clock
// is untouched and the returned Future joins it.
func (c Client) doRelaxed(blk *simtime.Clock, sys Sysno, args []uint64, path string, cl *call) *Future {
	d := Desc{Sysno: sys, Gran: GranBlock, Order: OrderRelaxed, Block: CallNonBlocking}
	wire := c.frame(d, args, path)
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
// that the lane's clock waits for, as Read's), and so, with head, is the head
// of a larger one — as much of it as dsts hold. The bytes that landed in each
// segment the file reached are returned. They are nil when nothing was
// carried — the file is empty, or larger than the offer without head, or the
// read failed, which the open survives — and the contents of dsts are then
// undefined.
func (c Client) Open(blk *simtime.Clock, path string, flags int, mode hostfs.Mode, dsts [][]byte, head bool) (int64, hostfs.FileInfo, []int, error) {
	cl := readCall(dsts)
	defer cl.done()
	var h uint64
	if head {
		h = 1
	}
	if err := c.do(blk, SysOpen, []uint64{uint64(flags), uint64(mode), h}, path, cl); err != nil {
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
	cl := readCall(dsts)
	defer cl.done()
	return c.doRelaxed(blk, SysOpen, []uint64{uint64(flags), uint64(mode)}, path, cl)
}

// Close closes a daemon descriptor handle.
func (c Client) Close(blk *simtime.Clock, fd int64) error {
	return c.do(blk, SysClose, []uint64{uint64(fd)}, "", &call{})
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
	defer cl.done()
	if err := c.do(blk, SysRead, []uint64{uint64(fd), uint64(off)}, "", cl); err != nil {
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
	defer cl.done()
	fut := c.doRelaxed(blk, SysRead, []uint64{uint64(fd), uint64(off)}, "", cl)
	if fut.err != nil {
		return nil, 0, fut.err
	}
	return cl.reply.Ns, fut.done, nil
}

// WritePages gathers the device memory segments srcs, in order, into the
// contiguous file extent starting at off: one ring transaction, one DMA
// gathered over the segments, whatever their number, and one host write —
// Read's mirror. It returns the byte count and the generation the host file
// has with the write applied (Reply.Gen). On error the write was applied
// nowhere or wholly (a retried one is deduplicated), and no count is returned.
func (c Client) WritePages(blk *simtime.Clock, fd, off int64, srcs [][]byte) (int, int64, error) {
	cl := writeCall(srcs)
	if err := c.do(blk, SysWrite, []uint64{uint64(fd), uint64(off)}, "", cl); err != nil {
		return 0, 0, err
	}
	return cl.reply.N, cl.reply.Gen, nil
}

// Truncate truncates the host file behind fd and returns the generation the
// file has with the truncation applied (Reply.Gen).
func (c Client) Truncate(blk *simtime.Clock, fd, size int64) (int64, error) {
	cl := &call{}
	if err := c.do(blk, SysTruncate, []uint64{uint64(fd), uint64(size)}, "", cl); err != nil {
		return 0, err
	}
	return cl.reply.Gen, nil
}

// Unlink removes the file at path on the host.
func (c Client) Unlink(blk *simtime.Clock, path string) error {
	return c.do(blk, SysUnlink, nil, path, &call{})
}

// Fsync forces the host file to stable storage.
func (c Client) Fsync(blk *simtime.Clock, fd int64) error {
	return c.do(blk, SysFsync, []uint64{uint64(fd)}, "", &call{})
}

// Validate asks the consistency layer whether the GPU's cached copy of
// ino at generation gen is still current. A call that fails (retry budget
// exhausted under faults) reports "not valid" — the conservative answer.
func (c Client) Validate(blk *simtime.Clock, ino, gen int64) bool {
	cl := &call{}
	err := c.do(blk, SysValidate, []uint64{uint64(ino), uint64(gen)}, "", cl)
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
