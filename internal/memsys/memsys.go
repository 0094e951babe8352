// Package memsys models the physical memories of the simulated machine:
// per-GPU device memory, pinned (page-locked) host memory used as DMA
// staging, and the write-shared host region through which the GPU and CPU
// exchange RPC messages (§4.3 of the paper).
//
// An arena is a fixed-capacity address space with a first-fit allocator,
// so capacity limits are enforced exactly: a kernel that tries to allocate
// more device memory than the simulated card has fails just like
// cudaMalloc would. Each allocation is backed by its own Go byte slice,
// zeroed when it is allocated, so a card's unallocated bytes cost the host
// nothing.
package memsys

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOutOfMemory is returned when an arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("memsys: out of memory")

// ErrBadFree is returned when freeing a block the arena does not own.
var ErrBadFree = errors.New("memsys: free of unallocated block")

// Kind identifies which physical memory an arena models.
type Kind int

// Memory kinds.
const (
	DeviceMemory Kind = iota // GPU-local GDDR
	PinnedHost               // page-locked host memory (DMA staging)
	SharedHost               // write-shared host memory (RPC rings)
)

// String names the memory kind.
func (k Kind) String() string {
	switch k {
	case DeviceMemory:
		return "device"
	case PinnedHost:
		return "pinned-host"
	case SharedHost:
		return "shared-host"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Block is an allocation from an Arena. Its Data is its own zeroed slice:
// every view cut from it (a buffer-cache frame is a sub-slice of the raw
// data array) shares its bytes, which is how DMA into buffer-cache pages
// behaves. A freed block's bytes are gone; the next Alloc reads zero.
type Block struct {
	// Data is the allocated byte range.
	Data []byte
	// Offset is the block's position within its arena, usable as a
	// simulated device pointer.
	Offset int64

	arena *Arena
}

// Size reports the block's length in bytes.
func (b *Block) Size() int64 { return int64(len(b.Data)) }

// Free returns the block to its arena. Freeing a zero Block is a no-op.
func (b *Block) Free() error {
	if b == nil || b.arena == nil {
		return nil
	}
	err := b.arena.release(b)
	b.arena = nil
	b.Data = nil
	return err
}

// Arena is a fixed-capacity memory with a first-fit free-list allocator
// over offsets. It is safe for concurrent use.
type Arena struct {
	name     string
	kind     Kind
	capacity int64

	mu       sync.Mutex
	freeList []span // sorted by offset, coalesced
	used     int64
	allocs   map[int64]int64 // offset -> length of live allocations
	peak     int64
}

type span struct{ off, len int64 }

// NewArena creates an arena of the given capacity.
func NewArena(name string, kind Kind, capacity int64) *Arena {
	if capacity < 0 {
		capacity = 0
	}
	return &Arena{
		name:     name,
		kind:     kind,
		capacity: capacity,
		freeList: []span{{0, capacity}},
		allocs:   make(map[int64]int64),
	}
}

// Name reports the arena's name.
func (a *Arena) Name() string { return a.name }

// Kind reports which physical memory the arena models.
func (a *Arena) Kind() Kind { return a.kind }

// Capacity reports the arena's total size in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// Used reports the currently allocated byte count.
func (a *Arena) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak reports the high-water mark of allocated bytes.
func (a *Arena) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Free reports the number of unallocated bytes (possibly fragmented).
func (a *Arena) Free() int64 { return a.Capacity() - a.Used() }

// Alloc reserves size bytes of the arena, aligned to align (which must be
// a power of two; 0 or 1 means unaligned), and backs them with a zeroed
// slice of their own.
func (a *Arena) Alloc(size, align int64) (*Block, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memsys: invalid allocation size %d", size)
	}
	if align <= 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return nil, fmt.Errorf("memsys: alignment %d not a power of two", align)
	}
	start, err := a.reserve(size, align)
	if err != nil {
		return nil, err
	}
	// Zero the bytes outside the lock: a large allocation does not stall
	// the arena's other users.
	return &Block{Data: make([]byte, size), Offset: start, arena: a}, nil
}

// reserve takes the first free span that fits [pad][size] and returns the
// block's offset.
func (a *Arena) reserve(size, align int64) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	for i, s := range a.freeList {
		start := (s.off + align - 1) &^ (align - 1)
		pad := start - s.off
		if s.len < pad+size {
			continue
		}
		// Split the free span into [pre-pad][block][remainder].
		var repl []span
		if pad > 0 {
			repl = append(repl, span{s.off, pad})
		}
		if rem := s.len - pad - size; rem > 0 {
			repl = append(repl, span{start + size, rem})
		}
		a.freeList = append(a.freeList[:i], append(repl, a.freeList[i+1:]...)...)
		a.allocs[start] = size
		a.used += size
		if a.used > a.peak {
			a.peak = a.used
		}
		return start, nil
	}
	return 0, fmt.Errorf("%w: %s arena %q: need %d, free %d (fragmented)",
		ErrOutOfMemory, a.kind, a.name, size, a.capacity-a.used)
}

func (a *Arena) release(b *Block) error {
	a.mu.Lock()
	defer a.mu.Unlock()

	size, ok := a.allocs[b.Offset]
	if !ok || size != b.Size() {
		return fmt.Errorf("%w: offset %d size %d in arena %q",
			ErrBadFree, b.Offset, b.Size(), a.name)
	}
	delete(a.allocs, b.Offset)
	a.used -= size

	a.freeList = append(a.freeList, span{b.Offset, size})
	sort.Slice(a.freeList, func(i, j int) bool { return a.freeList[i].off < a.freeList[j].off })
	// Coalesce adjacent spans.
	out := a.freeList[:0]
	for _, s := range a.freeList {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].len == s.off {
			out[n-1].len += s.len
		} else {
			out = append(out, s)
		}
	}
	a.freeList = out
	return nil
}

// LiveAllocs reports the number of outstanding allocations.
func (a *Arena) LiveAllocs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.allocs)
}
