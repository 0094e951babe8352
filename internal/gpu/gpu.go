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
	"math"
	"math/rand"
	"slices"
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

	// reserved is the running launch's stack of zeroed scratchpads, taken
	// from padPool at its start and given back at its end, so it is empty
	// between launches. Its backing array is made with the device: a launch
	// allocates no stack.
	reserved [][]byte

	// launchMu serializes launches in HOST time only: one kernel's blocks run
	// as goroutines at a time, which keeps block placement a function of
	// virtual availability (see nextTurn). In virtual time kernels overlap:
	// slots, MP calendars and the resident-kernel table persist across
	// launches, so a kernel issued while an earlier one's tail still runs
	// takes the slots that tail leaves free.
	launchMu sync.Mutex
	slotMu   sync.Mutex // guards slot.at / slot.assigned / resident
	cur      *launch    // the launch slot.work runs, set under launchMu
	launch   launch     // the record every launch reuses (launchMu)
	byRank   []int      // slot indices, sorted by (at, index) at a launch's start (launchMu)

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
	at       simtime.Time      // virtual time the slot becomes free (slotMu)
	assigned int64             // blocks dispatched to this slot (slotMu)

	// state and wake are the slot's part in the running launch, under its mu:
	// wake tells the slot's worker that its turn has come or that it must
	// exit. Every slot is idle between launches.
	state slotState
	wake  sync.Cond // on the running launch's mu

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
	d.reserved = make([][]byte, 0, n)
	d.byRank = make([]int, n)
	for i := 0; i < n; i++ {
		d.byRank[i] = i
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
// timelines to idle. Memory contents and fault state are untouched. It waits
// for a launch in flight: a launch's workers were chosen by the slot
// availabilities at its start.
func (d *Device) ResetTime() {
	d.launchMu.Lock()
	defer d.launchMu.Unlock()
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
// availability. Each launch starts a worker goroutine on every slot that can
// be handed one of its blocks, and one decision per pull or block end says
// whose turn it is to take the next block, so real-time Go scheduling quirks
// cannot skew which slot a block lands on.
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

	// The device's one launch record is reused: launches serialize, and the
	// last one's workers have all exited (Wait below) before the next starts.
	l := &d.launch
	d.mu.Lock()
	seq := d.launchSeq
	d.launchSeq++
	l.order = d.rng.Perm(blocks)
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

	// Pulls are ordered by VIRTUAL slot availability (see nextTurn): the slot
	// that frees earliest in virtual time takes the next block, exactly like
	// the hardware scheduler, and real-time Go scheduling (which on one OS
	// core is heavily biased) cannot skew block placement. A worker starts
	// only on a slot that can be handed one of the blocks: the min(blocks,
	// slots) that rank first in (availability, index).
	l.d, l.fn, l.blocks, l.threads, l.seq, l.launchAt = d, fn, blocks, threads, seq, launchAt
	l.next, l.kerr = 0, nil
	l.meter.Reset()
	l.meter.Observe(launchAt)

	// No worker runs yet: the stack and the slots are this goroutine's until
	// they start.
	workers := min(blocks, len(d.slots))
	d.reservePads(workers)
	d.slotMu.Lock()
	if workers < len(d.slots) {
		slices.SortFunc(d.byRank, func(a, b int) int {
			switch {
			case a == b:
				return 0
			case d.ranksAhead(a, b):
				return -1
			}
			return 1
		})
	}
	for _, si := range d.byRank[:workers] {
		d.slots[si].state = waiting
		d.slots[si].wake.L = &l.mu
	}
	l.turn = l.nextTurn()
	d.slotMu.Unlock()
	d.cur = l
	l.wg.Add(workers)
	for _, si := range d.byRank[:workers] {
		go d.slots[si].work()
	}
	l.wg.Wait()
	d.returnPads()
	d.cur = nil
	d.slotMu.Lock()
	d.resident[entry] = l.meter.Max()
	d.slotMu.Unlock()
	l.fn = nil // the kernel's closure holds its caller's state
	return l.meter.Max(), l.kerr
}

// padPool is the process's free scratchpads, every one zeroed, by size. A
// pad is on-die state a block holds only while it runs (§2), so it outlives
// its device: a fresh machine's launches take the pads an earlier one's gave
// back. The pool keeps the peak of the pads reserved at once and never
// shrinks. It is not a sync.Pool, whose contents the collector drops.
var padPool = struct {
	sync.Mutex
	free map[int64][][]byte
}{free: map[int64][][]byte{}}

// reservePads puts n zeroed pads of the device's size on the launch's stack,
// taking them from padPool and making only those it lacks.
func (d *Device) reservePads(n int) {
	size := d.cfg.ScratchpadBytes
	padPool.Lock()
	free := padPool.free[size]
	k := len(free) - min(n, len(free))
	d.reserved = append(d.reserved, free[k:]...)
	clear(free[k:])
	padPool.free[size] = free[:k]
	padPool.Unlock()
	for len(d.reserved) < n {
		d.reserved = append(d.reserved, make([]byte, size))
	}
}

// returnPads gives every pad on the launch's stack, each cleared by the
// block that held it, back to padPool.
func (d *Device) returnPads() {
	size := d.cfg.ScratchpadBytes
	padPool.Lock()
	padPool.free[size] = append(padPool.free[size], d.reserved...)
	padPool.Unlock()
	clear(d.reserved)
	d.reserved = d.reserved[:0]
}

// launch is the running kernel launch's state, shared by its slot workers,
// whose goroutines (slot.work) allocate nothing. It is the device's one
// record (Device.launch), re-armed by each launch. Under mu, the
// goroutine that pulls a block or ends one decides whose turn is next
// (handOff) and wakes only that slot's worker, through slot.wake.
type launch struct {
	d               *Device
	fn              BlockFunc
	blocks, threads int
	seq             int64
	launchAt        simtime.Time
	meter           simtime.Meter
	wg              sync.WaitGroup

	mu    sync.Mutex
	order []int // remaining block indices
	next  int
	turn  int   // the slot whose worker pulls next; -1 while none may
	kerr  error // the first block fault; no block is pulled after it
}

type slotState uint8

const (
	// idle slots have no worker: none was started, or it exited because the
	// slot can no longer be handed a block of the launch.
	idle slotState = iota
	// waiting slots are idle with a worker that waits for the slot's turn.
	waiting
	// busy slots run a block.
	busy
)

// slotWorker is slot si's worker: it runs the blocks the slot is handed
// until it can be handed no more.
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
		l.meter.Observe(b.Clock.Now())
		d.blocksRun.Add(1)
		if !l.finish(si, pad, b, err) {
			return
		}
	}
}

// pullTurn waits until it is slot si's turn, then takes the next block index
// and the scratchpad last pushed and hands the turn on. It reports false once
// the slot's worker must exit instead.
func (l *launch) pullTurn(si int) (idx int, startAt simtime.Time, pad []byte, ok bool) {
	d := l.d
	ls := &d.slots[si]
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.turn != si {
		if ls.state != waiting {
			return 0, 0, nil, false
		}
		ls.wake.Wait()
	}
	idx = l.order[l.next]
	l.next++
	ls.state = busy
	// The launch reserved a pad for each block that can run at once: an
	// empty stack is a broken invariant, and the index panics.
	n := len(d.reserved) - 1
	pad, d.reserved = d.reserved[n], d.reserved[:n]
	d.slotMu.Lock()
	d.slots[si].assigned++
	startAt = max(l.launchAt, d.slots[si].at)
	l.handOff()
	d.slotMu.Unlock()
	return idx, startAt, pad, true
}

// finish records the end of slot si's block b and reports whether the slot's
// worker waits for another turn. A fault stops the launch.
func (l *launch) finish(si int, pad []byte, b *Block, err error) bool {
	d := l.d
	l.mu.Lock()
	defer l.mu.Unlock()
	d.reserved = append(d.reserved, pad)
	d.slots[si].state = idle
	d.slotMu.Lock()
	defer d.slotMu.Unlock()
	d.slots[si].at = max(d.slots[si].at, b.Clock.Now())
	if err != nil && l.kerr == nil {
		l.kerr = fmt.Errorf("%w: block %d: %v", ErrKernelFault, b.Idx, err)
		d.mu.Lock()
		d.faulted = l.kerr
		d.mu.Unlock()
		l.stop()
	}
	if l.kerr != nil || l.next == len(l.order) {
		return false
	}
	stay := l.keep(si)
	l.handOff()
	return stay
}

// keep decides whether slot si, whose block just ended, waits for another
// turn. A slot can never be handed a block, and its worker exits, once at
// least as many idle slots rank ahead of it as there are blocks left: each
// of them pulls before it does. So the waiting slots are always the first
// idle slots in rank order, at most as many as there are blocks left (a
// pull takes a block and the first of them, which moves no one past that
// line; only an end can), and one scan of them decides. When si stays, the
// waiting slot that ranked last is pushed past the line, and its worker is
// woken to exit. Called with l.mu and d.slotMu held.
func (l *launch) keep(si int) bool {
	d := l.d
	left := len(l.order) - l.next
	waiters, ahead, last := 0, 0, -1
	for j := range d.slots {
		if d.slots[j].state != waiting {
			continue
		}
		waiters++
		if d.ranksAhead(j, si) {
			ahead++
		}
		if last < 0 || d.ranksAhead(last, j) {
			last = j
		}
	}
	if ahead >= left {
		return false
	}
	if waiters == left {
		d.slots[last].state = idle
		d.slots[last].wake.Signal()
	}
	d.slots[si].state = waiting
	return true
}

// ranksAhead reports whether slot a ranks ahead of slot b in (availability,
// index), the order in which idle slots take blocks. Called with d.slotMu
// held.
func (d *Device) ranksAhead(a, b int) bool {
	at, bt := d.slots[a].at, d.slots[b].at
	return at < bt || at == bt && a < b
}

// handOff passes the turn on after a pull or a block's end: it decides whose
// turn it is and wakes only that slot's worker. An empty queue stops the
// launch. Called with l.mu and d.slotMu held.
func (l *launch) handOff() {
	d := l.d
	if l.next == len(l.order) {
		l.stop()
		return
	}
	if l.turn = l.nextTurn(); l.turn >= 0 {
		if d.slots[l.turn].state != waiting {
			panic(fmt.Sprintf("gpu: the turn fell to slot %d, which has no worker", l.turn))
		}
		d.slots[l.turn].wake.Signal()
	}
}

// nextTurn is the turn rule, the one place it is decided: the idle slot
// lowest in (availability, index) may pull once no busy slot's last-known
// availability is below its own. A busy slot frees no earlier than that
// bound, so if the bound is not smaller it cannot rank ahead. It returns -1
// while one could. Called with l.mu and d.slotMu held.
func (l *launch) nextTurn() int {
	d := l.d
	first, busyAt := -1, simtime.Time(math.MaxInt64)
	for j := range d.slots {
		if d.slots[j].state == busy {
			busyAt = min(busyAt, d.slots[j].at)
		} else if first < 0 || d.ranksAhead(j, first) {
			first = j
		}
	}
	if first < 0 || busyAt < d.slots[first].at {
		return -1
	}
	return first
}

// stop ends the launch's dispatch, on a fault or an empty queue: no slot has
// the turn, and every waiting worker is woken to exit. Called with l.mu held.
func (l *launch) stop() {
	d := l.d
	l.turn = -1
	for j := range d.slots {
		if d.slots[j].state == waiting {
			d.slots[j].state = idle
			d.slots[j].wake.Signal()
		}
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
	// block starts, back on its launch's stack for another block when it
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
