// Package hostfs implements the host operating system's file system — the
// substrate underneath GPUfs. It provides a POSIX-flavoured API (Open,
// Pread, Preadv, Pwrite, Pwritev, Fsync, Ftruncate, Unlink, Stat, Mkdir)
// over an in-memory inode store, with a CPU buffer (page) cache in front of
// a simulated rotational disk.
//
// File *contents* are real bytes; *timing* is virtual. Reads of ranges that
// are resident in the CPU page cache are charged at CPU memory bandwidth
// (6600 MB/s on the paper's testbed); non-resident ranges are charged to the
// disk model (132 MB/s plus seeks) and brought into the cache, evicting
// least-recently-used pages when RAM is exhausted. This reproduces the two
// performance regimes the paper's evaluation straddles: page-cache-bound
// sequential reads (Figures 4-5) and the disk-bound tail of Figure 8.
package hostfs

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"

	"gpufs/internal/disk"
	"gpufs/internal/faults"
	"gpufs/internal/simtime"
)

// Open flags, mirroring the POSIX subset GPUfs forwards to the host (§3.2).
const (
	O_RDONLY int = 0x0
	O_WRONLY int = 0x1
	O_RDWR   int = 0x2
	O_CREATE int = 0x40
	O_TRUNC  int = 0x200
	O_EXCL   int = 0x80

	accessMask = 0x3
)

// Mode is a simplified permission mode.
type Mode uint32

// Permission bits.
const (
	ModeRead  Mode = 0x4
	ModeWrite Mode = 0x2
	ModeDir   Mode = 0x4000
)

// Errors returned by file-system operations.
var (
	ErrNotExist   = errors.New("hostfs: no such file or directory")
	ErrExist      = errors.New("hostfs: file exists")
	ErrIsDir      = errors.New("hostfs: is a directory")
	ErrNotDir     = errors.New("hostfs: not a directory")
	ErrPerm       = errors.New("hostfs: permission denied")
	ErrBadFd      = errors.New("hostfs: file descriptor closed")
	ErrReadOnly   = errors.New("hostfs: file opened read-only")
	ErrWriteOnly  = errors.New("hostfs: file opened write-only")
	ErrInvalid    = errors.New("hostfs: invalid argument")
	ErrNameTooBig = errors.New("hostfs: path component too long")
	// ErrIO is the EIO class: a media or device error. Never retried
	// successfully by the RPC layer — it is a valid (failed) reply, not a
	// lost one.
	ErrIO = errors.New("hostfs: input/output error (EIO)")
)

const maxNameLen = 255

// sectorSize is the granularity of persistent (bad-sector) read failures;
// it matches the injector's hashing granularity.
const sectorSize = 4096

// FileInfo describes a file, as returned by Stat and Fstat.
type FileInfo struct {
	Name string
	Ino  int64
	Size int64
	Mode Mode
	// Generation counts content-modifying operations (writes, truncates)
	// committed to this inode. The wrapfs consistency layer compares
	// generations to decide whether a GPU's cached copy is stale.
	Generation int64
	IsDir      bool
}

type inode struct {
	ino  int64
	mode Mode

	mu       sync.Mutex
	isDir    bool
	children map[string]*inode // directories only
	data     []byte            // regular files only
	gen      int64
	nlink    int
	opens    int
}

func (n *inode) size() int64 { return int64(len(n.data)) }

// FS is the host file system. All operations are safe for concurrent use.
type FS struct {
	disk    *disk.Disk
	membus  *simtime.Resource
	cache   *pageCache
	memRate simtime.Rate

	syscall simtime.Duration

	// timingFree, when set, makes all operations cost zero virtual time
	// while still moving real data. The Figure 5 benchmark uses it to
	// isolate the "CPU file I/O excluded" cost component.
	timingFree atomic.Bool

	// inj injects host-side I/O faults (EIO, short reads, bad sectors,
	// fsync failures); nil means no injection.
	inj atomic.Pointer[faults.Injector]

	mu      sync.Mutex
	root    *inode
	nextIno int64
	byIno   map[int64]*inode
}

// SetTimingFree toggles zero-cost mode (see the field comment).
func (fs *FS) SetTimingFree(on bool) { fs.timingFree.Store(on) }

// SetFaultInjector installs (or, with nil, removes) the fault injector for
// host I/O and propagates it to the backing disk's latency model.
func (fs *FS) SetFaultInjector(inj *faults.Injector) {
	fs.inj.Store(inj)
	fs.disk.SetFaultInjector(inj)
}

// chargeSyscall advances the clock by the syscall overhead unless timing is
// disabled.
func (fs *FS) chargeSyscall(c *simtime.Clock) {
	if !fs.timingFree.Load() {
		c.Advance(fs.syscall)
	}
}

// Options configures a host file system.
type Options struct {
	// DiskBandwidth and DiskSeek parameterize the backing disk.
	DiskBandwidth simtime.Rate
	DiskSeek      simtime.Duration
	// MemBandwidth is the CPU memory copy bandwidth for cached reads.
	MemBandwidth simtime.Rate
	// CacheBytes is the CPU page cache capacity (host RAM).
	CacheBytes int64
	// SyscallOverhead is the fixed per-call cost.
	SyscallOverhead simtime.Duration
}

// New creates an empty host file system with a root directory.
func New(opt Options) *FS {
	fs := &FS{
		disk:    disk.New(opt.DiskBandwidth, opt.DiskSeek),
		membus:  simtime.NewResource("cpu-membus"),
		syscall: opt.SyscallOverhead,
		nextIno: 2, // 1 is the root
	}
	fs.cache = newPageCache(opt.CacheBytes, fs.disk)
	fs.byIno = make(map[int64]*inode)
	fs.root = &inode{
		ino:      1,
		mode:     ModeDir | ModeRead | ModeWrite,
		isDir:    true,
		children: make(map[string]*inode),
		nlink:    1,
	}
	fs.byIno[fs.root.ino] = fs.root
	fs.memRate = opt.MemBandwidth
	return fs
}

// InodeGeneration reports the current content generation of inode ino, or
// false if no such live inode exists. The wrapfs consistency layer exposes
// this through write-shared memory so GPUs can validate cached files
// without a daemon round trip.
func (fs *FS) InodeGeneration(ino int64) (int64, bool) {
	fs.mu.Lock()
	n, ok := fs.byIno[ino]
	fs.mu.Unlock()
	if !ok {
		return 0, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.nlink == 0 {
		return 0, false
	}
	return n.gen, true
}

// Disk exposes the underlying disk model (for statistics).
func (fs *FS) Disk() *disk.Disk { return fs.disk }

// MemBus exposes the CPU memory-bus resource so other components (the DMA
// engine staging through pinned host memory) can contend with file reads on
// the same physical bandwidth.
func (fs *FS) MemBus() *simtime.Resource { return fs.membus }

// DropCaches empties the CPU page cache, like `echo 3 >
// /proc/sys/vm/drop_caches`. The paper flushes the OS page cache before the
// image-search experiments.
func (fs *FS) DropCaches() { fs.cache.drop() }

// CacheResident reports the number of bytes currently resident in the CPU
// page cache.
func (fs *FS) CacheResident() int64 { return fs.cache.resident() }

// ResetTime returns the host's virtual-time resources (memory bus, disk)
// to idle without touching file contents or page-cache residency. The
// benchmark harness calls it after workload generation so setup I/O does
// not pollute measured timelines.
func (fs *FS) ResetTime() {
	fs.membus.Reset()
	fs.disk.Reset()
}

// ReservePinned adjusts the amount of host RAM pinned by applications
// (page-locked DMA buffers), which shrinks the page cache's effective
// capacity — pinned memory "competes with the CPU buffer cache" (§5.1.4).
// Pass a negative delta to release.
func (fs *FS) ReservePinned(delta int64) { fs.cache.reserve(delta) }

// ---- Path resolution ----

// lookup walks an absolute slash-separated path and returns the inode, or
// ErrNotExist. The FS lock must be held.
func (fs *FS) lookupLocked(p string) (*inode, error) {
	n, _, _, err := fs.walkLocked(p)
	return n, err
}

// walkLocked resolves p, returning the target (nil if absent), its parent
// directory, and the final path component.
func (fs *FS) walkLocked(p string) (n, parent *inode, base string, err error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return fs.root, nil, "/", nil
	}
	parts := strings.Split(clean[1:], "/")
	cur := fs.root
	for i, part := range parts {
		if len(part) > maxNameLen {
			return nil, nil, "", fmt.Errorf("%w: %q", ErrNameTooBig, part)
		}
		if !cur.isDir {
			return nil, nil, "", fmt.Errorf("%w: %q", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		next := cur.children[part]
		if i == len(parts)-1 {
			return next, cur, part, nil
		}
		if next == nil {
			return nil, nil, "", fmt.Errorf("%w: %q", ErrNotExist, clean)
		}
		cur = next
	}
	return nil, nil, "", fmt.Errorf("%w: %q", ErrNotExist, clean)
}

// newDirLocked makes an empty directory inode; the caller links it into its
// parent. fs.mu held.
func (fs *FS) newDirLocked(mode Mode) *inode {
	n := &inode{
		ino:      fs.nextIno,
		mode:     mode | ModeDir,
		isDir:    true,
		children: make(map[string]*inode),
		nlink:    1,
	}
	fs.nextIno++
	fs.byIno[n.ino] = n
	return n
}

// MkdirAll creates a directory and any missing parents, in one walk. It
// fails with ErrNotDir where the path runs through, or ends at, something
// that is not a directory.
func (fs *FS) MkdirAll(p string, mode Mode) error {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil
	}
	parts := strings.Split(clean[1:], "/")
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for i, part := range parts {
		if len(part) > maxNameLen {
			return fmt.Errorf("%w: %q", ErrNameTooBig, part)
		}
		if !cur.isDir {
			return fmt.Errorf("%w: %q", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		next := cur.children[part]
		if next == nil {
			next = fs.newDirLocked(mode)
			cur.children[part] = next
		}
		cur = next
	}
	if !cur.isDir {
		return fmt.Errorf("%w: %q", ErrNotDir, clean)
	}
	return nil
}

// Stat returns metadata for the file at p.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookupLocked(p)
	if err != nil {
		return FileInfo{}, err
	}
	if n == nil {
		return FileInfo{}, fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	return fs.infoLocked(path.Base(path.Clean("/"+p)), n), nil
}

func (fs *FS) infoLocked(name string, n *inode) FileInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return FileInfo{
		Name:       name,
		Ino:        n.ino,
		Size:       n.size(),
		Mode:       n.mode,
		Generation: n.gen,
		IsDir:      n.isDir,
	}
}

// Unlink removes the file at p. Open descriptors remain usable (POSIX
// semantics); the content is dropped when the last descriptor closes.
func (fs *FS) Unlink(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, parent, base, err := fs.walkLocked(p)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.isDir {
		return fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	delete(parent.children, base)
	n.mu.Lock()
	n.nlink--
	drop := n.nlink == 0 && n.opens == 0
	n.mu.Unlock()
	delete(fs.byIno, n.ino)
	if drop {
		fs.cache.forget(n.ino)
	}
	return nil
}

// ---- Open files ----

// File is an open file description with an access mode, analogous to a
// POSIX file descriptor. Reads and writes are positional only (pread and
// pwrite); there is no seek pointer, matching what GPUfs needs from the
// host (§3.2).
type File struct {
	fs    *FS
	node  *inode
	name  string
	flags int

	mu     sync.Mutex
	closed bool
}

// Open opens the file at p. The clock is charged the syscall overhead plus
// any disk time needed (none for open itself). O_CREATE creates missing
// files; O_TRUNC truncates on open; O_EXCL with O_CREATE fails on existing
// files.
func (fs *FS) Open(c *simtime.Clock, p string, flags int, mode Mode) (*File, error) {
	fs.chargeSyscall(c)

	fs.mu.Lock()
	n, parent, base, err := fs.walkLocked(p)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	switch {
	case n == nil && flags&O_CREATE == 0:
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
	case n == nil:
		if parent == nil {
			fs.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrInvalid, p)
		}
		n = &inode{
			ino:   fs.nextIno,
			mode:  mode,
			nlink: 1,
		}
		fs.nextIno++
		parent.children[base] = n
		fs.byIno[n.ino] = n
	case flags&(O_CREATE|O_EXCL) == O_CREATE|O_EXCL:
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExist, p)
	case n.isDir:
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	fs.mu.Unlock()

	n.mu.Lock()
	acc := flags & accessMask
	if (acc == O_RDONLY || acc == O_RDWR) && n.mode&ModeRead == 0 {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q not readable", ErrPerm, p)
	}
	if (acc == O_WRONLY || acc == O_RDWR) && n.mode&ModeWrite == 0 {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q not writable", ErrPerm, p)
	}
	if flags&O_TRUNC != 0 && acc != O_RDONLY {
		n.data = nil
		n.gen++
		fs.cache.forget(n.ino)
	}
	n.opens++
	n.mu.Unlock()

	return &File{fs: fs, node: n, name: path.Clean("/" + p), flags: flags}, nil
}

// Name reports the path the file was opened with.
func (f *File) Name() string { return f.name }

// Ino reports the file's inode number.
func (f *File) Ino() int64 { return f.node.ino }

// Close releases the descriptor.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrBadFd
	}
	f.closed = true
	f.mu.Unlock()

	n := f.node
	n.mu.Lock()
	n.opens--
	drop := n.nlink == 0 && n.opens == 0
	n.mu.Unlock()
	if drop {
		f.fs.cache.forget(n.ino)
	}
	return nil
}

func (f *File) check(write bool) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrBadFd
	}
	acc := f.flags & accessMask
	if write && acc == O_RDONLY {
		return fmt.Errorf("%w: %q", ErrReadOnly, f.name)
	}
	if !write && acc == O_WRONLY {
		return fmt.Errorf("%w: %q", ErrWriteOnly, f.name)
	}
	return nil
}

// Pread reads len(p) bytes at offset off, charging page-cache or disk time
// as appropriate, and returns the byte count (short at EOF).
func (f *File) Pread(c *simtime.Clock, p []byte, off int64) (int, error) {
	return f.Preadv(c, [][]byte{p}, off)
}

// Preadv is preadv(2): one read of the contiguous extent at off into the
// segments dsts, in order, at the cost of one Pread of their total length.
// The count is short at EOF, and the segments fill in order, so it covers a
// prefix of the vector.
func (f *File) Preadv(c *simtime.Clock, dsts [][]byte, off int64) (int, error) {
	if err := f.check(false); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f.fs.chargeSyscall(c)

	n := f.node
	n.mu.Lock()
	if off >= n.size() {
		n.mu.Unlock()
		return 0, nil
	}
	cnt, src := 0, n.data[off:]
	for _, p := range dsts {
		cnt += copy(p, src[cnt:])
	}
	size := n.size()
	n.mu.Unlock()

	if inj := f.fs.inj.Load(); inj.Enabled() {
		if inj.Should(faults.HostReadEIO, c.Now()) {
			return 0, fmt.Errorf("%w: read %q at %d", ErrIO, f.name, off)
		}
		for so := off - off%sectorSize; so < off+int64(cnt); so += sectorSize {
			if inj.BadSector(n.ino, so, c.Now()) {
				return 0, fmt.Errorf("%w: %q sector at %d unreadable", ErrIO, f.name, so)
			}
		}
		if cnt > 1 && inj.Should(faults.HostShortRead, c.Now()) {
			// Short read: at least 1 byte, strictly fewer than asked.
			cnt = 1 + int(inj.Fraction(faults.HostShortRead)*float64(cnt-1))
		}
	}

	// Timing: bring missing units in from disk, then copy over the memory
	// bus.
	if !f.fs.timingFree.Load() {
		end := f.fs.cache.charge(c.Now(), n.ino, off, int64(cnt), size, false)
		c.AdvanceTo(end)
		c.Use(f.fs.membus, simtime.TransferTime(int64(cnt), f.fs.memRate))
	}
	return cnt, nil
}

// Pwrite writes len(p) bytes at offset off, extending the file if needed.
// Data lands in the page cache (dirty); it reaches the disk on Fsync or
// under cache pressure. Besides the byte count it returns the generation the
// file has with this write applied (FileInfo.Generation as an Fstat would
// read it before any later modification), which is what lets a caching
// client keep its copy current without a second call.
func (f *File) Pwrite(c *simtime.Clock, p []byte, off int64) (int, int64, error) {
	return f.Pwritev(c, [][]byte{p}, off)
}

// Pwritev is pwritev(2): one write of the segments srcs, in order, to the
// contiguous extent at off, at the cost of one Pwrite of their total length.
func (f *File) Pwritev(c *simtime.Clock, srcs [][]byte, off int64) (int, int64, error) {
	if err := f.check(true); err != nil {
		return 0, 0, err
	}
	if off < 0 {
		return 0, 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f.fs.chargeSyscall(c)

	if inj := f.fs.inj.Load(); inj.Should(faults.HostWriteEIO, c.Now()) {
		return 0, 0, fmt.Errorf("%w: write %q at %d", ErrIO, f.name, off)
	}

	total := 0
	for _, p := range srcs {
		total += len(p)
	}
	n := f.node
	n.mu.Lock()
	need := off + int64(total)
	if need > n.size() {
		old := n.size()
		if need > int64(cap(n.data)) {
			grown := make([]byte, need, grow(cap(n.data), need))
			copy(grown, n.data)
			n.data = grown
		} else {
			// Reslicing within capacity exposes bytes from before a
			// truncation; the gap must read as zeros (POSIX holes).
			n.data = n.data[:need]
			for i := old; i < need; i++ {
				n.data[i] = 0
			}
		}
	}
	at := n.data[off:]
	for _, p := range srcs {
		at = at[copy(at, p):]
	}
	n.gen++
	gen := n.gen
	n.mu.Unlock()

	if !f.fs.timingFree.Load() {
		end := f.fs.cache.charge(c.Now(), n.ino, off, int64(total), need, true)
		c.AdvanceTo(end)
		c.Use(f.fs.membus, simtime.TransferTime(int64(total), f.fs.memRate))
	}
	return total, gen, nil
}

func grow(cur int, need int64) int64 {
	g := int64(cur) * 2
	if g < need {
		g = need
	}
	return g
}

// Fsync flushes the file's dirty page-cache units to disk, charging disk
// write time.
func (f *File) Fsync(c *simtime.Clock) error {
	if err := f.check(false); err != nil && !errors.Is(err, ErrWriteOnly) {
		return err
	}
	f.fs.chargeSyscall(c)
	if inj := f.fs.inj.Load(); inj.Should(faults.HostFsyncEIO, c.Now()) {
		return fmt.Errorf("%w: fsync %q", ErrIO, f.name)
	}
	if !f.fs.timingFree.Load() {
		end := f.fs.cache.sync(c.Now(), f.node.ino)
		c.AdvanceTo(end)
	}
	return nil
}

// Ftruncate sets the file size, discarding data and cached units beyond it,
// and returns the generation the file has with the truncation applied (see
// Pwrite).
func (f *File) Ftruncate(c *simtime.Clock, size int64) (int64, error) {
	if err := f.check(true); err != nil {
		return 0, err
	}
	if size < 0 {
		return 0, fmt.Errorf("%w: negative size %d", ErrInvalid, size)
	}
	f.fs.chargeSyscall(c)

	n := f.node
	n.mu.Lock()
	switch {
	case size < n.size():
		n.data = n.data[:size]
	case size > n.size():
		if size > int64(cap(n.data)) {
			grown := make([]byte, size)
			copy(grown, n.data)
			n.data = grown
		} else {
			zero := n.data[n.size():size]
			for i := range zero {
				zero[i] = 0
			}
			n.data = n.data[:size]
		}
	}
	n.gen++
	gen := n.gen
	n.mu.Unlock()
	f.fs.cache.truncate(n.ino, size)
	return gen, nil
}

// Fstat returns the file's metadata.
func (f *File) Fstat(c *simtime.Clock) (FileInfo, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return FileInfo{}, ErrBadFd
	}
	f.fs.chargeSyscall(c)
	return f.fs.infoLocked(path.Base(f.name), f.node), nil
}

// Size reports the file's current size without charging any time (used by
// internal bookkeeping, not by simulated programs).
func (f *File) Size() int64 {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return f.node.size()
}

// WriteFile is a convenience that creates (or truncates) the file at p with
// the given content, charging time to c. Parent directories must exist.
func (fs *FS) WriteFile(c *simtime.Clock, p string, data []byte, mode Mode) error {
	f, err := fs.Open(c, p, O_WRONLY|O_CREATE|O_TRUNC, mode)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, err := f.Pwrite(c, data, 0); err != nil {
		return err
	}
	return nil
}

// ReadFile is a convenience that reads the whole file at p.
func (fs *FS) ReadFile(c *simtime.Clock, p string) ([]byte, error) {
	f, err := fs.Open(c, p, O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Fstat(c)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	total := 0
	for total < len(buf) {
		n, err := f.Pread(c, buf[total:], int64(total))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break // EOF
		}
		total += n
	}
	return buf[:total], nil
}
