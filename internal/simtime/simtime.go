// Package simtime provides the virtual-time accounting layer used by the
// GPUfs hardware simulation.
//
// The simulator mixes two kinds of concurrency. Correctness-relevant
// concurrency (the lock-free buffer cache, RPC queues, eviction races) is
// real: threadblocks are goroutines and contend on real atomics. Performance,
// on the other hand, is accounted in virtual nanoseconds so that benchmark
// results are deterministic in shape and calibrated to the hardware constants
// reported in the GPUfs paper (PCIe bandwidth, disk bandwidth, and so on).
//
// The core abstraction is the Resource: a serialized timeline such as a DMA
// channel, a disk, or a GPU multiprocessor. An execution context (threadblock,
// CPU daemon) carries its own local virtual clock and advances it by reserving
// time on resources:
//
//	start = max(localNow, resource.nextFree)
//	end   = start + duration
//
// This gives queueing and contention effects — two blocks transferring over
// the same PCIe direction serialize, overlapped disk reads and DMA pipelines
// overlap — without a full discrete-event core.
package simtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t advanced by d. Negative durations are clamped to zero so a
// mis-specified cost can never move a clock backwards.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		return t
	}
	return t + Time(d)
}

// Sub returns the duration from u to t (t - u), clamped at zero.
func (t Time) Sub(u Time) Duration {
	if t < u {
		return 0
	}
	return Duration(t - u)
}

// Seconds reports the duration in floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration in floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the timestamp in floating-point seconds since simulation
// start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Rate is a transfer or processing rate in bytes per virtual second.
type Rate float64

// Common rates.
const (
	KBps Rate = 1e3
	MBps Rate = 1e6
	GBps Rate = 1e9
)

// TransferTime returns how long moving n bytes takes at rate r. A zero or
// negative rate means "infinitely fast" and costs nothing; this is used by
// the benchmark harness to exclude individual cost components (Figure 5).
func TransferTime(n int64, r Rate) Duration {
	if r <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / float64(r) * float64(Second))
}

// Resource is a serialized virtual-time resource: at most one reservation
// occupies it at any virtual instant. Reservations are calendar-based:
// Acquire books the earliest free interval at or after the caller's time,
// including gaps left between earlier bookings. Backfilling matters because
// execution contexts are real goroutines whose *call* order is unrelated to
// their *virtual* order — a context that is virtually early must not queue
// behind one that merely called first. Resources are safe for concurrent
// use.
type Resource struct {
	name string

	mu   sync.Mutex
	cal  []ival // sorted, disjoint busy intervals
	busy Duration
	ops  int64
}

type ival struct{ start, end Time }

// NewResource returns a named, idle resource.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire reserves d of exclusive time on r, starting no earlier than now,
// and returns the reservation's start and end timestamps. The caller's
// local clock should advance to end.
func (r *Resource) Acquire(now Time, d Duration) (start, end Time) {
	if now < 0 {
		now = 0
	}
	if d <= 0 {
		return now, now
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	r.busy += d

	// First interval that ends after now; earlier intervals are
	// irrelevant.
	i := sort.Search(len(r.cal), func(i int) bool { return r.cal[i].end > now })
	start = now
	for ; i < len(r.cal); i++ {
		if start.Add(d) <= r.cal[i].start {
			break // fits in the gap before interval i
		}
		if r.cal[i].end > start {
			start = r.cal[i].end
		}
	}
	end = start.Add(d)
	r.insertLocked(ival{start, end}, i)
	return start, end
}

// insertLocked places iv at index i, merging with touching neighbours.
func (r *Resource) insertLocked(iv ival, i int) {
	// Merge with predecessor.
	if i > 0 && r.cal[i-1].end == iv.start {
		r.cal[i-1].end = iv.end
		// Merge with successor too?
		if i < len(r.cal) && r.cal[i].start == iv.end {
			r.cal[i-1].end = r.cal[i].end
			r.cal = append(r.cal[:i], r.cal[i+1:]...)
		}
		return
	}
	// Merge with successor.
	if i < len(r.cal) && r.cal[i].start == iv.end {
		r.cal[i].start = iv.start
		return
	}
	r.cal = append(r.cal, ival{})
	copy(r.cal[i+1:], r.cal[i:])
	r.cal[i] = iv
}

// Occupy books the half-open interval [from, to) regardless of existing
// reservations (merging overlaps). It models work whose duration is known
// only after the fact, such as the RPC daemon staying busy through a host
// file operation. Only the time no earlier booking covers counts as busy, so
// Busy stays the summed length of the calendar's intervals. It returns the
// rest of [from, to), which earlier bookings already held: the time the
// resource is now booked twice.
func (r *Resource) Occupy(from, to Time) (overlap Duration) {
	if to <= from {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	i := sort.Search(len(r.cal), func(i int) bool { return r.cal[i].end >= from })
	j := i
	start, end := from, to
	var covered Duration // already booked within what the merge absorbs
	for j < len(r.cal) && r.cal[j].start <= end {
		if r.cal[j].start < start {
			start = r.cal[j].start
		}
		if r.cal[j].end > end {
			end = r.cal[j].end
		}
		covered += r.cal[j].end.Sub(r.cal[j].start)
		j++
	}
	added := end.Sub(start) - covered
	r.busy += added
	// In place: the calendars are long and a booking in the middle is the
	// common case once requests overlap, so a copy of the tail per call is
	// what this costs the host otherwise.
	if i == j {
		r.cal = append(r.cal, ival{})
		copy(r.cal[i+1:], r.cal[i:])
	} else {
		r.cal = append(r.cal[:i+1], r.cal[j:]...)
	}
	r.cal[i] = ival{start, end}
	return to.Sub(from) - added
}

// Probe reports when a reservation of d starting no earlier than now could
// begin, without booking it.
func (r *Resource) Probe(now Time, d Duration) Time {
	if now < 0 {
		now = 0
	}
	if d <= 0 {
		return now
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.cal), func(i int) bool { return r.cal[i].end > now })
	start := now
	for ; i < len(r.cal); i++ {
		if start.Add(d) <= r.cal[i].start {
			break
		}
		if r.cal[i].end > start {
			start = r.cal[i].end
		}
	}
	return start
}

// NextFree reports the first instant after every existing reservation.
func (r *Resource) NextFree() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.cal) == 0 {
		return 0
	}
	return r.cal[len(r.cal)-1].end
}

// Busy reports the total reserved (busy) time accumulated on the resource.
func (r *Resource) Busy() Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// Ops reports the number of reservations made on the resource.
func (r *Resource) Ops() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.mu.Lock()
	r.cal, r.busy, r.ops = nil, 0, 0
	r.mu.Unlock()
}

// Pool is a set of interchangeable parallel resources (for example the
// multiple asynchronous CPU–GPU DMA channels of §4.3). Acquire picks the
// channel that can start the earliest.
type Pool struct {
	name string
	res  []*Resource
	mu   sync.Mutex
}

// NewPool creates a pool of n parallel resources.
func NewPool(name string, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{name: name}
	for i := 0; i < n; i++ {
		p.res = append(p.res, NewResource(fmt.Sprintf("%s[%d]", name, i)))
	}
	return p
}

// Size reports the number of parallel channels in the pool.
func (p *Pool) Size() int { return len(p.res) }

// Acquire reserves d on the pool member that can start the earliest.
func (p *Pool) Acquire(now Time, d Duration) (start, end Time) {
	// The selection and reservation must be atomic with respect to other
	// acquirers, otherwise two callers could pick the same "least loaded"
	// channel and serialize needlessly.
	p.mu.Lock()
	best := p.res[0]
	bestStart := best.Probe(now, d)
	for _, r := range p.res[1:] {
		if s := r.Probe(now, d); s < bestStart {
			best, bestStart = r, s
		}
	}
	start, end = best.Acquire(now, d)
	p.mu.Unlock()
	return start, end
}

// Busy reports the total busy time summed across all channels.
func (p *Pool) Busy() Duration {
	var total Duration
	for _, r := range p.res {
		total += r.Busy()
	}
	return total
}

// Reset returns every channel to idle.
func (p *Pool) Reset() {
	for _, r := range p.res {
		r.Reset()
	}
}

// WorkerPool is a set of parallel serialized workers addressed by index.
// Unlike Pool, the CALLER picks the member — for example by ring-shard
// affinity — so work pinned to one worker keeps FIFO order on that worker's
// timeline while distinct workers overlap in virtual time. The RPC host
// service uses it to model the paper's parallel daemon threads (§4.2).
type WorkerPool struct {
	res []*Resource
}

// NewWorkerPool creates a pool of n indexed workers.
func NewWorkerPool(name string, n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{}
	for i := 0; i < n; i++ {
		p.res = append(p.res, NewResource(fmt.Sprintf("%s[%d]", name, i)))
	}
	return p
}

// Size reports the number of workers.
func (p *WorkerPool) Size() int { return len(p.res) }

// Worker returns member i mod Size, so any non-negative affinity key is a
// valid index.
func (p *WorkerPool) Worker(i int) *Resource {
	return p.res[i%len(p.res)]
}

// Busy reports the total busy time summed across all workers.
func (p *WorkerPool) Busy() Duration {
	var total Duration
	for _, r := range p.res {
		total += r.Busy()
	}
	return total
}

// Reset returns every worker to idle.
func (p *WorkerPool) Reset() {
	for _, r := range p.res {
		r.Reset()
	}
}

// Meter tracks the maximum timestamp observed across many execution contexts;
// the final value is the makespan of a simulated run.
type Meter struct {
	max atomic.Int64
}

// Observe folds a context's final timestamp into the meter.
func (m *Meter) Observe(t Time) {
	for {
		cur := m.max.Load()
		if int64(t) <= cur || m.max.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Max reports the largest observed timestamp.
func (m *Meter) Max() Time { return Time(m.max.Load()) }

// Reset clears the meter.
func (m *Meter) Reset() { m.max.Store(0) }

// Clock is a monotone local clock for one execution context. It is not safe
// for concurrent use; each context owns its clock.
type Clock struct {
	now Time
}

// NewClock returns a clock set to the given start time.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the clock's current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d Duration) Time {
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Fork returns a clock set to c's current time: a second timeline for work the
// context issues now and joins later (AdvanceTo the fork's Now). Whatever
// blocks on the fork — a strong RPC, a transfer — overlaps with what the
// context does on c meanwhile.
func (c *Clock) Fork() Clock { return Clock{now: c.now} }

// Use reserves d on resource r starting at the clock's current time and
// advances the clock to the reservation's end.
func (c *Clock) Use(r *Resource, d Duration) Time {
	_, end := r.Acquire(c.now, d)
	c.now = end
	return end
}
