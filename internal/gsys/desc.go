// Package gsys is the GPU system-call subsystem: the file protocol GPUfs
// speaks to its host daemon. Every call carries a typed descriptor —
// operation, ordering class (strong or relaxed), and blocking mode — and
// is framed into a wire format before a host-side handler registered in a
// syscall table executes it on a daemon worker's clock. Every call is
// block-collective, as in the paper (§4): a threadblock issues it once.
//
// The split of responsibilities with internal/rpc is deliberate: rpc is
// the transport (sharded rings, retry/timeout/dedup, completion queue,
// daemon pool) and the timing model, and knows nothing about files; gsys
// is the protocol — the syscall table, the host descriptor table, the
// wire frames and the consistency-metadata calls. A strong-ordered call
// blocks its lane's clock until the response is delivered, which is all
// strong ordering needs; relaxed calls ride the out-of-order completion
// queue and are joined explicitly through Future.Wait.
package gsys

import "fmt"

// Sysno identifies a system call in the generic syscall table.
type Sysno uint8

// System calls: the file operations.
const (
	SysOpen Sysno = iota
	SysClose
	SysRead
	SysWrite
	SysTruncate
	SysUnlink
	SysFsync
	SysValidate
	numSysno
)

// knownSysno is the compile-time drift guard companion of numSysno:
// adding a Sysno without extending String() (and this constant) fails the
// array-length assignment below instead of rendering as "sys(8)" at
// runtime.
const knownSysno = 8

var _ [knownSysno]struct{} = [numSysno]struct{}{}

// String names the system call. The switch is exhaustive over the enum;
// the drift guard above forces an update when a Sysno is added.
func (s Sysno) String() string {
	switch s {
	case SysOpen:
		return "gopen"
	case SysClose:
		return "gclose"
	case SysRead:
		return "gread"
	case SysWrite:
		return "gwrite"
	case SysTruncate:
		return "gtruncate"
	case SysUnlink:
		return "gunlink"
	case SysFsync:
		return "gfsync"
	case SysValidate:
		return "gvalidate"
	}
	return fmt.Sprintf("sys(%d)", uint8(s))
}

// Granularity is the issue granularity a descriptor records: how many
// data-parallel threads collaborated to issue it. Every client call is
// block-collective and carries GranBlock; the field stays on the wire
// because the frame format and its committed fuzz corpus decode it.
type Granularity uint8

// Issue granularities.
const (
	GranThread Granularity = iota
	GranWarp
	GranBlock
	numGran
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case GranThread:
		return "thread"
	case GranWarp:
		return "warp"
	case GranBlock:
		return "block"
	}
	return fmt.Sprintf("gran(%d)", uint8(g))
}

// Ordering is the memory-ordering class of a call with respect to other
// calls on the same lane.
type Ordering uint8

// Ordering classes.
const (
	// OrderStrong calls are FIFO per lane: a strong call blocks its
	// lane's clock until it completes, so it is ordered after every
	// earlier strong call on the lane.
	OrderStrong Ordering = iota
	// OrderRelaxed calls do not block the lane: they complete out of
	// order on the completion queue and are joined explicitly.
	OrderRelaxed
	numOrdering
)

// String names the ordering class.
func (o Ordering) String() string {
	switch o {
	case OrderStrong:
		return "strong"
	case OrderRelaxed:
		return "relaxed"
	}
	return fmt.Sprintf("ordering(%d)", uint8(o))
}

// Blocking is the completion-wait mode of a call.
type Blocking uint8

// Blocking modes.
const (
	// CallBlocking calls advance the issuing block's clock to the call's
	// completion before returning.
	CallBlocking Blocking = iota
	// CallNonBlocking calls leave the block's clock untouched; the
	// completion time is reported through a Future (or discarded for
	// detached speculation such as prefetch).
	CallNonBlocking
	numBlocking
)

// String names the blocking mode.
func (b Blocking) String() string {
	switch b {
	case CallBlocking:
		return "blocking"
	case CallNonBlocking:
		return "nonblocking"
	}
	return fmt.Sprintf("blocking(%d)", uint8(b))
}

// Desc is the typed syscall descriptor every call carries on the wire.
type Desc struct {
	Sysno Sysno
	Gran  Granularity
	Order Ordering
	Block Blocking
}

// Valid reports whether every enum field is in range (used by frame
// decoding to reject corrupt descriptors).
func (d Desc) Valid() bool {
	return d.Sysno < numSysno && d.Gran < numGran && d.Order < numOrdering && d.Block < numBlocking
}

// String renders the descriptor for traces and errors.
func (d Desc) String() string {
	return fmt.Sprintf("%v/%v/%v/%v", d.Sysno, d.Gran, d.Order, d.Block)
}
