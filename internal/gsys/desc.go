// Package gsys is the generic GPU system-call subsystem (ROADMAP item 3,
// after "GPU System Calls", Veselý et al.). It generalizes the file-only
// RPC protocol of internal/rpc into an arbitrary syscall surface: every
// call carries a typed descriptor — operation, issue granularity (thread,
// warp, or block), ordering class (strong or relaxed), and blocking mode —
// and is framed into a wire format before a host-side handler registered
// in a syscall table executes it on a daemon worker's clock.
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

// System calls: the file operations, then directory enumeration and
// pipes.
const (
	SysOpen Sysno = iota
	SysClose
	SysRead
	SysWrite
	SysTruncate
	SysUnlink
	SysFsync
	SysValidate
	SysReaddir
	SysPipeOpen
	SysPipeRead
	SysPipeWrite
	SysPipeClose
	numSysno
)

// knownSysno is the compile-time drift guard companion of numSysno:
// adding a Sysno without extending String() (and this constant) fails the
// array-length assignment below instead of rendering as "sys(15)" at
// runtime.
const knownSysno = 13

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
	case SysReaddir:
		return "greaddir"
	case SysPipeOpen:
		return "gpipe_open"
	case SysPipeRead:
		return "gpipe_read"
	case SysPipeWrite:
		return "gpipe_write"
	case SysPipeClose:
		return "gpipe_close"
	}
	return fmt.Sprintf("sys(%d)", uint8(s))
}

// Granularity is the issue granularity of a call: how many data-parallel
// threads collaborated to issue this one descriptor. The warp-level
// parallelism literature motivates warp as the natural unit for divergent
// I/O; GPUfs's own API is block-collective.
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

// ParseGranularity parses a granularity knob string as used by the cmd
// flags ("thread", "warp", "block").
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "thread":
		return GranThread, nil
	case "warp":
		return GranWarp, nil
	case "block":
		return GranBlock, nil
	}
	return 0, fmt.Errorf("unknown granularity %q (want thread, warp, or block)", s)
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
