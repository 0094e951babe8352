// Package gpu simulates a discrete FERMI-class GPU closely enough to host
// the GPUfs library: a set of multiprocessors (MPs), kernels made of
// threadblocks, a hardware scheduler that dispatches blocks in
// non-deterministic order and never preempts them, per-block on-die
// scratchpad memory, device memory with finite bandwidth, and memory fences
// with the weak consistency the paper's RPC layer must work around (§2, §4.3).
//
// Threadblocks execute as real goroutines, so GPUfs's lock-free data
// structures are contended by genuine concurrency. Virtual time is tracked
// per block: a block's clock starts when an execution slot frees up and
// advances as the block charges compute and memory costs; the kernel's
// completion time is the maximum over its blocks.
//
// Threads within a block are modelled logically, as the GPUfs prototype
// itself does for API calls: the library is invoked at block granularity and
// data movement "by all threads collaboratively" is expressed through
// ForEachThread, whose cost model reflects coalesced parallel access.
package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"gpufs/internal/memsys"
	"gpufs/internal/simtime"
)

// MaxResidentKernels is how many kernels a device holds at once: FERMI's
// concurrent-kernel limit. Like the warp's lockstep it is a property of the
// modelled hardware, not something a configuration chooses. A kernel is
// resident from the end of its launch overhead until its last block ends,
// whether its blocks are running or waiting for an execution slot.
const MaxResidentKernels = 16

// ErrKernelFault is wrapped by errors returned from faulting kernels. The
// paper notes a GPU program failure may require restarting the whole card,
// losing device memory (§3.3); Device.Faulted models that sticky state.
var ErrKernelFault = errors.New("gpu: kernel fault")

// Config holds the device-model parameters.
type Config struct {
	// ID is the device's index in the system.
	ID int
	// MPs is the number of multiprocessors.
	MPs int
	// BlocksPerMP is the residency limit per MP.
	BlocksPerMP int
	// MemBytes is the device memory capacity.
	MemBytes int64
	// MemBandwidth is the aggregate device memory bandwidth.
	MemBandwidth simtime.Rate
	// Flops is the device's achieved arithmetic throughput, used by
	// Block.Compute.
	Flops float64
	// ScratchpadBytes is the per-block on-die scratchpad size.
	ScratchpadBytes int64
	// LaunchOverhead is the fixed virtual cost of a kernel launch.
	LaunchOverhead simtime.Duration
	// SchedSeed seeds the non-deterministic block dispatch order. Zero
	// selects a fixed default so runs are reproducible unless varied
	// explicitly.
	SchedSeed int64
}

// Device is one simulated GPU.
type Device struct {
	cfg Config

	// Mem is the device's global memory.
	Mem *memsys.Arena

	membw *simtime.Resource
	mps   []*simtime.Resource
	slots []slot

	// pads is the device's stack of block scratchpads, every one zeroed. A
	// launch tops it up to the blocks it can run at once, min(blocks, slots),
	// before its workers start; a block pops the pad last pushed, still hot,
	// and its worker clears and pushes it back when the block returns, both
	// under the launch's mu. The count is a function of the launches alone,
	// not of host interleaving.
	pads [][]byte

	// launchMu serializes launches in HOST time only: one kernel's blocks run
	// as goroutines at a time, which keeps block placement a function of
	// virtual availability (see pullTurn). In virtual time kernels overlap:
	// slots, MP calendars and the resident-kernel table persist across
	// launches, so a kernel issued while an earlier one's tail still runs
	// takes the slots that tail leaves free.
	launchMu sync.Mutex
	slotMu   sync.Mutex // guards slot.at / slot.assigned / resident
	cur      *launch    // the launch slot.work runs, set under launchMu

	// resident is the device's kernel table: entry i holds the virtual end
	// of the last kernel that occupied it. A launch takes the entry that
	// frees earliest, exactly as a block takes a slot.
	resident [MaxResidentKernels]simtime.Time

	mu        sync.Mutex
	rng       *rand.Rand
	launchSeq int64
	faulted   error

	blocksRun atomic.Int64
	kernels   atomic.Int64
}

type slot struct {
	mp       *simtime.Resource // the MP this slot executes on
	at       simtime.Time      // virtual time the slot becomes free (freeMu)
	assigned int64             // blocks dispatched to this slot (freeMu)

	// src and rng are the generator a block finds on its slot rather than
	// allocates: handed to one block at a time (blocks of a slot run back to
	// back, launches serialize) and re-armed by blockRand.
	src lazySource
	rng *rand.Rand // over src

	// work runs the current launch's worker on this slot, made with the
	// device: a go statement that passes arguments allocates a wrapper.
	work func()
}

// blockRand returns the slot's generator re-armed to yield the stream of
// rand.New(rand.NewSource(seed)).
func (s *slot) blockRand(seed int64) *rand.Rand {
	s.rng.Seed(seed) // also drops bytes a previous block's Read left buffered
	return s.rng
}

// lazySource is a rand.Source64 seeded at its first draw: seeding fills a
// 607-word state, which costs more host time than most blocks' whole body,
// and most kernels never draw. The stream is rand.NewSource(seed)'s.
type lazySource struct {
	src    rand.Source64 // nil until the first draw
	seed   int64
	seeded bool
}

func (l *lazySource) Seed(seed int64) { l.seed, l.seeded = seed, false }
func (l *lazySource) Int63() int64    { return l.draw().Int63() }
func (l *lazySource) Uint64() uint64  { return l.draw().Uint64() }

func (l *lazySource) draw() rand.Source64 {
	if !l.seeded {
		if l.src == nil {
			l.src = rand.NewSource(l.seed).(rand.Source64)
		} else {
			l.src.Seed(l.seed)
		}
		l.seeded = true
	}
	return l.src
}

// New creates a device.
func New(cfg Config) *Device {
	if cfg.MPs < 1 {
		cfg.MPs = 1
	}
	if cfg.BlocksPerMP < 1 {
		cfg.BlocksPerMP = 1
	}
	cfg.ScratchpadBytes = max(cfg.ScratchpadBytes, 0)
	seed := cfg.SchedSeed
	if seed == 0 {
		seed = 0x6702 + int64(cfg.ID)
	}
	d := &Device{
		cfg:   cfg,
		Mem:   memsys.NewArena(fmt.Sprintf("gpu%d", cfg.ID), memsys.DeviceMemory, cfg.MemBytes),
		membw: simtime.NewResource(fmt.Sprintf("gpu%d-membw", cfg.ID)),
		rng:   rand.New(rand.NewSource(seed)),
		mps:   make([]*simtime.Resource, cfg.MPs),
	}
	for i := range d.mps {
		d.mps[i] = simtime.NewResource(fmt.Sprintf("gpu%d-mp%d", cfg.ID, i))
	}
	n := cfg.MPs * cfg.BlocksPerMP
	d.slots = make([]slot, n)
	d.pads = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		d.slots[i].mp = d.mps[i%cfg.MPs]
		d.slots[i].rng = rand.New(&d.slots[i].src)
		d.slots[i].work = func() { d.cur.slotWorker(i) }
	}
	return d
}

// ID reports the device index.
func (d *Device) ID() int { return d.cfg.ID }

// MaxResidentBlocks reports how many blocks can execute concurrently.
func (d *Device) MaxResidentBlocks() int { return len(d.slots) }

// MemBandwidthResource exposes the device memory bandwidth timeline so the
// DMA engine can charge transfers into device memory against it.
func (d *Device) MemBandwidthResource() *simtime.Resource { return d.membw }

// Faulted reports the sticky fault recorded by a failed kernel, if any.
func (d *Device) Faulted() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faulted
}

// InjectFault latches a device fault from the outside, modelling a
// hardware-level failure (an XID-class error) rather than a kernel bug:
// subsequent Launches fail until ResetFault, exactly as if a kernel had
// faulted. An already-faulted device keeps its original error.
func (d *Device) InjectFault(cause error) {
	d.mu.Lock()
	if d.faulted == nil {
		d.faulted = fmt.Errorf("%w: injected: %v", ErrKernelFault, cause)
	}
	d.mu.Unlock()
}

// ResetFault clears the fault state, modelling a GPU restart. Device memory
// contents survive here (unlike real hardware) so tests can inspect state.
func (d *Device) ResetFault() {
	d.mu.Lock()
	d.faulted = nil
	d.mu.Unlock()
}

// ResetTime returns the device's execution-slot, kernel-table and bandwidth
// timelines to idle. Memory contents and fault state are untouched.
func (d *Device) ResetTime() {
	d.slotMu.Lock()
	d.resident = [MaxResidentKernels]simtime.Time{}
	for i := range d.slots {
		d.slots[i].at = 0
	}
	for _, mp := range d.mps {
		mp.Reset()
	}
	d.slotMu.Unlock()
	d.membw.Reset()
}

// BlocksRun reports the total number of threadblocks executed.
func (d *Device) BlocksRun() int64 { return d.blocksRun.Load() }

// KernelsRun reports the total number of kernels launched.
func (d *Device) KernelsRun() int64 { return d.kernels.Load() }

// BlockFunc is the body of a threadblock. It runs to completion without
// preemption. A returned error models a kernel fault (invalid access,
// assertion); it aborts dispatch of not-yet-started blocks and is reported
// by Launch.
type BlockFunc func(b *Block) error

// Launch issues a kernel of blocks threadblocks of threads threads each at
// virtual time start and executes it, dispatching in a non-deterministic
// (seeded-random) order onto execution slots, like the hardware scheduler of
// §2: blocks run to completion and dispatch is driven only by slot
// availability. One persistent worker goroutine drains the queue per slot,
// so real-time Go scheduling quirks cannot skew which slot a block lands on.
//
// Launch blocks the calling goroutine until the kernel completes and
// returns the kernel's virtual completion time; launches on one device
// serialize in host time. In VIRTUAL time start is when the launch is
// issued, not a promise that the device is idle, and kernels overlap the
// way a stream of asynchronous launches does:
//
//   - the kernel becomes resident at start + LaunchOverhead, or, with
//     MaxResidentKernels earlier kernels still resident then, when the first
//     of them ends;
//   - a block starts no earlier than that, and no earlier than the end of
//     the block that last ran on its slot, whichever kernel it belonged to;
//   - an MP's calendar is booked once per instant, so co-resident blocks of
//     two kernels multiplex an MP exactly as two blocks of one kernel do;
//   - launches issued at nondecreasing times dispatch in launch order: every
//     block of the earlier kernel has been placed before the first block of
//     the later one is, and none of the later kernel's blocks starts before
//     the earlier kernel's last dispatch.
//
// A caller that issues each launch at or after the previous one's end — or
// at 0 after ResetTime — never meets another kernel and sees none of this.
// A launch issued EARLIER than a previous one (a second stream's position,
// the host-driven restart at 0) is placed by its own issue time.
func (d *Device) Launch(start simtime.Time, blocks, threads int, fn BlockFunc) (simtime.Time, error) {
	if blocks < 1 || threads < 1 {
		return start, fmt.Errorf("gpu: invalid launch geometry %dx%d", blocks, threads)
	}
	if err := d.Faulted(); err != nil {
		return start, fmt.Errorf("gpu%d: device faulted: %w", d.cfg.ID, err)
	}
	d.launchMu.Lock()
	defer d.launchMu.Unlock()

	d.mu.Lock()
	seq := d.launchSeq
	d.launchSeq++
	order := d.rng.Perm(blocks)
	d.mu.Unlock()
	d.kernels.Add(1)

	launchAt := start.Add(d.cfg.LaunchOverhead)
	d.slotMu.Lock()
	entry := 0
	for i, end := range d.resident {
		if end < d.resident[entry] {
			entry = i
		}
	}
	launchAt = max(launchAt, d.resident[entry])
	d.slotMu.Unlock()

	// One persistent worker per execution slot drains the block queue.
	// Pulls are ordered by VIRTUAL slot availability through a turnstile
	// (see pullTurn): the slot that frees earliest in virtual time takes
	// the next block, exactly like the hardware scheduler — real-time Go
	// scheduling (which on one OS core is heavily biased) cannot skew
	// block placement.
	l := &launch{d: d, fn: fn, blocks: blocks, threads: threads, seq: seq,
		launchAt: launchAt, order: order, busy: make([]bool, len(d.slots))}
	l.cond.L = &l.mu
	l.meter.Observe(launchAt)

	// No worker runs yet: the stack is this goroutine's until they start.
	for len(d.pads) < min(blocks, len(d.slots)) {
		d.pads = append(d.pads, make([]byte, d.cfg.ScratchpadBytes))
	}
	d.cur = l
	l.wg.Add(len(d.slots))
	for si := range d.slots {
		go d.slots[si].work()
	}
	l.wg.Wait()
	d.cur = nil
	d.slotMu.Lock()
	d.resident[entry] = l.meter.Max()
	d.slotMu.Unlock()
	return l.meter.Max(), l.kerr
}

// launch is one kernel launch's state, one allocation shared by its slot
// workers, whose goroutines (slot.work) allocate nothing. mu and cond order
// the pulls of the blocks left in order by virtual availability (pullTurn).
type launch struct {
	d               *Device
	fn              BlockFunc
	blocks, threads int
	seq             int64
	launchAt        simtime.Time
	mu              sync.Mutex
	cond            sync.Cond // on mu
	order           []int     // remaining block indices
	next            int
	busy            []bool
	wg              sync.WaitGroup
	meter           simtime.Meter
	errOnce         sync.Once
	kerr            error
	aborted         atomic.Bool
}

// slotWorker is slot si's worker: it runs the blocks pullTurn hands the slot
// until the queue is empty or a block faults.
func (l *launch) slotWorker(si int) {
	defer l.wg.Done()
	d := l.d
	s := &d.slots[si]
	for {
		idx, startAt, pad, ok := l.pullTurn(si)
		if !ok {
			return
		}

		b := &Block{
			Idx:     idx,
			Blocks:  l.blocks,
			Threads: l.threads,
			Clock:   simtime.NewClock(startAt),
			Scratch: pad,
			Rand:    s.blockRand(l.seq<<20 ^ int64(idx)*0x9e3779b9),
			dev:     d,
			mp:      s.mp,
		}

		err := runBlock(b, l.fn)
		clear(pad) // while it is still hot
		end := b.Clock.Now()
		l.meter.Observe(end)

		l.mu.Lock()
		d.pads = append(d.pads, pad)
		d.slotMu.Lock()
		s.at = max(s.at, end)
		d.slotMu.Unlock()
		l.busy[si] = false
		l.mu.Unlock()
		l.cond.Broadcast()

		d.blocksRun.Add(1)
		if err != nil {
			l.aborted.Store(true)
			l.errOnce.Do(func() {
				l.kerr = fmt.Errorf("%w: block %d: %v", ErrKernelFault, b.Idx, err)
				d.mu.Lock()
				d.faulted = l.kerr
				d.mu.Unlock()
			})
			l.cond.Broadcast()
			return
		}
	}
}

// pullTurn blocks until slot si is the virtually-earliest available slot,
// then takes the next block index and the scratchpad last pushed. A slot may pull when no idle slot has a
// (smaller, or equal with lower index) availability and no busy slot's
// last-known availability is strictly smaller (a busy slot can only become
// available later than that bound, so if the bound is not smaller it cannot
// beat us).
func (l *launch) pullTurn(si int) (idx int, startAt simtime.Time, pad []byte, ok bool) {
	d := l.d
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.next >= len(l.order) || l.aborted.Load() {
			l.cond.Broadcast()
			return 0, 0, nil, false
		}
		d.slotMu.Lock()
		myAt := d.slots[si].at
		turn := true
		for j := range d.slots {
			if j == si {
				continue
			}
			at := d.slots[j].at
			if l.busy[j] {
				if at < myAt {
					turn = false
					break
				}
			} else if at < myAt || (at == myAt && j < si) {
				turn = false
				break
			}
		}
		d.slotMu.Unlock()
		if turn {
			idx = l.order[l.next]
			l.next++
			l.busy[si] = true
			// The launch reserved a pad for each block that can run at once:
			// an empty stack is a broken invariant, and the index panics.
			n := len(d.pads) - 1
			pad, d.pads = d.pads[n], d.pads[:n]
			d.slotMu.Lock()
			d.slots[si].assigned++
			startAt = max(l.launchAt, d.slots[si].at)
			d.slotMu.Unlock()
			l.cond.Broadcast()
			return idx, startAt, pad, true
		}
		l.cond.Wait()
	}
}

func runBlock(b *Block, fn BlockFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(b)
}

// Block is the execution context handed to a BlockFunc: the simulated
// threadblock.
type Block struct {
	// Idx is the block's index within the kernel grid.
	Idx int
	// Blocks is the kernel's total block count.
	Blocks int
	// Threads is the number of threads in this block.
	Threads int
	// Clock is the block's local virtual clock.
	Clock *simtime.Clock
	// Scratch is the block's on-die scratchpad memory: zeroed when the
	// block starts, back on the device's stack for another block when it
	// returns.
	Scratch []byte
	// Rand is a per-block deterministic random source, a function of the
	// launch's sequence number and Idx; like Scratch it is the block's only
	// until it returns.
	Rand *rand.Rand

	dev *Device
	mp  *simtime.Resource
}

// SyncThreads is the block-wide barrier (__syncthreads). All simulated
// threads are already in lockstep at block granularity, so this only
// charges the barrier's virtual cost.
func (b *Block) SyncThreads() {
	b.Clock.Use(b.mp, 50*simtime.Nanosecond)
}

// MemFence issues a device-wide memory fence (__threadfence_system). GPUfs
// requires one after gwrite so that data paged back by a CPU-initiated DMA
// is not left behind in the GPU's L1 (§4.1).
func (b *Block) MemFence() {
	b.Clock.Use(b.mp, 200*simtime.Nanosecond)
}

// ForEachThread runs fn once per thread in the block, modelling code that
// all threads execute in lockstep. fn must be cheap and side-effect-local;
// its virtual cost is charged by the caller via Compute/CopyBytes.
func (b *Block) ForEachThread(fn func(tid int)) {
	for t := 0; t < b.Threads; t++ {
		fn(t)
	}
}

// Busy charges d of execution time on the block's MP timeline. Library
// code (GPUfs) uses it to account its own instruction footprint.
func (b *Block) Busy(d simtime.Duration) {
	if d > 0 {
		b.Clock.Use(b.mp, d)
	}
}

// UseMemory charges d of device-memory occupancy to the block, modelling
// library metadata traffic (for example radix-tree node reads during
// lock-free buffer-cache traversal) that competes with data copies for
// memory bandwidth.
func (b *Block) UseMemory(d simtime.Duration) {
	if d > 0 {
		b.Clock.Use(b.dev.membw, d)
	}
}

// Compute charges flops of arithmetic to the block's MP. The per-MP rate is
// the device's aggregate rate divided across MPs; blocks co-resident on one
// MP serialize on its timeline, which models hardware multiplexing.
func (b *Block) Compute(flops float64) {
	if flops <= 0 {
		return
	}
	perMP := b.dev.cfg.Flops / float64(b.dev.cfg.MPs)
	if perMP <= 0 {
		return
	}
	d := simtime.Duration(flops / perMP * float64(simtime.Second))
	b.Clock.Use(b.mp, d)
}

// ComputeBytes charges a streaming computation over n bytes at the given
// per-device processing rate (bytes/s), divided across MPs like Compute.
func (b *Block) ComputeBytes(n int64, rate simtime.Rate) {
	if n <= 0 || rate <= 0 {
		return
	}
	perMP := simtime.Rate(float64(rate) / float64(b.dev.cfg.MPs))
	b.Clock.Use(b.mp, simtime.TransferTime(n, perMP))
}

// CopyBytes performs a real copy between device-resident slices and charges
// the device memory bandwidth (two passes: read + write). This is the
// primitive behind collaborative page copies in gread/gwrite.
func (b *Block) CopyBytes(dst, src []byte) int {
	n := copy(dst, src)
	b.chargeMem(int64(n) * 2)
	return n
}

// ZeroBytes zeroes a device-resident slice collaboratively and charges one
// bandwidth pass.
func (b *Block) ZeroBytes(p []byte) {
	for i := range p {
		p[i] = 0
	}
	b.chargeMem(int64(len(p)))
}

// TouchBytes charges n bytes of device-memory traffic without moving real
// data; used when a workload reads a mapped page without copying it.
func (b *Block) TouchBytes(n int64) { b.chargeMem(n) }

func (b *Block) chargeMem(n int64) {
	if n <= 0 {
		return
	}
	b.Clock.Use(b.dev.membw, simtime.TransferTime(n, b.dev.cfg.MemBandwidth))
}

// SlotAssignments reports how many blocks each slot has executed
// (diagnostics).
func (d *Device) SlotAssignments() []int64 {
	d.slotMu.Lock()
	defer d.slotMu.Unlock()
	out := make([]int64, len(d.slots))
	for i := range d.slots {
		out[i] = d.slots[i].assigned
	}
	return out
}

// MPBusy reports each multiprocessor's accumulated busy time (diagnostics).
func (d *Device) MPBusy() []simtime.Duration {
	out := make([]simtime.Duration, len(d.mps))
	for i, mp := range d.mps {
		out[i] = mp.Busy()
	}
	return out
}
