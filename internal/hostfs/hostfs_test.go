package hostfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/simtime"
)

func newFS() *FS {
	return New(Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        8 * simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      64 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	})
}

func clk() *simtime.Clock { return simtime.NewClock(0) }

const rw = ModeRead | ModeWrite

func TestCreateWriteRead(t *testing.T) {
	fs := newFS()
	c := clk()
	if err := fs.MkdirAll("/a/b/c", ModeDir|rw); err != nil {
		t.Fatal(err)
	}
	want := []byte("hello gpufs")
	if err := fs.WriteFile(c, "/a/b/c/f.txt", want, rw); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(c, "/a/b/c/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if c.Now() == 0 {
		t.Fatalf("operations should cost virtual time")
	}
}

func TestPathResolutionErrors(t *testing.T) {
	fs := newFS()
	c := clk()
	if _, err := fs.Open(c, "/missing", O_RDONLY, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	fs.MkdirAll("/d", ModeDir|rw)
	if _, err := fs.Open(c, "/d", O_RDONLY, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir: %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", []byte("data"), rw)

	if _, err := fs.Open(c, "/f", O_WRONLY|O_CREATE|O_EXCL, rw); !errors.Is(err, ErrExist) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	f, err := fs.Open(c, "/f", O_WRONLY|O_TRUNC, rw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("O_TRUNC did not truncate")
	}
	f.Close()
}

func TestAccessModeEnforcement(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", []byte("data"), rw)

	ro, _ := fs.Open(c, "/f", O_RDONLY, 0)
	if _, _, err := ro.Pwrite(c, []byte("x"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write through O_RDONLY: %v", err)
	}
	wo, _ := fs.Open(c, "/f", O_WRONLY, 0)
	buf := make([]byte, 4)
	if _, err := wo.Pread(c, buf, 0); !errors.Is(err, ErrWriteOnly) {
		t.Fatalf("read through O_WRONLY: %v", err)
	}
	ro.Close()
	wo.Close()
}

func TestPermissionBits(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/noread", nil, ModeWrite)
	if _, err := fs.Open(c, "/noread", O_RDONLY, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("unreadable file opened: %v", err)
	}
	fs.WriteFile(c, "/nowrite", nil, rw)
	// Strip write permission by creating a fresh read-only file.
	fs2 := newFS()
	f, err := fs2.Open(clk(), "/ro", O_WRONLY|O_CREATE, ModeRead)
	if err == nil {
		f.Close()
	}
	if _, err := fs2.Open(clk(), "/ro", O_WRONLY, 0); err == nil {
		t.Skip("creation path grants writability; enforcement covered above")
	}
}

func TestPwriteExtendsAndGenerationBumps(t *testing.T) {
	fs := newFS()
	c := clk()
	f, err := fs.Open(c, "/f", O_RDWR|O_CREATE, rw)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g0, _ := fs.InodeGeneration(f.Ino())
	_, gen, err := f.Pwrite(c, []byte("abc"), 10)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Fstat(c)
	if info.Size != 13 {
		t.Fatalf("size = %d, want 13", info.Size)
	}
	g1, _ := fs.InodeGeneration(f.Ino())
	if g1 <= g0 {
		t.Fatalf("generation must advance on write: %d -> %d", g0, g1)
	}
	if gen != info.Generation {
		t.Fatalf("Pwrite returned generation %d, an Fstat right after reads %d", gen, info.Generation)
	}
	// The gap reads as zeros.
	buf := make([]byte, 13)
	f.Pread(c, buf, 0)
	for i := 0; i < 10; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole not zero at %d", i)
		}
	}
}

func TestFtruncate(t *testing.T) {
	fs := newFS()
	c := clk()
	f, _ := fs.Open(c, "/f", O_RDWR|O_CREATE, rw)
	defer f.Close()
	f.Pwrite(c, []byte("0123456789"), 0)

	gen, err := f.Ftruncate(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("shrink failed: %d", f.Size())
	}
	if info, _ := f.Fstat(c); gen != info.Generation {
		t.Fatalf("Ftruncate returned generation %d, an Fstat right after reads %d", gen, info.Generation)
	}
	if _, err := f.Ftruncate(c, 8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	f.Pread(c, buf, 0)
	if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("grow should zero-fill: %q", buf)
	}
	if _, err := f.Ftruncate(c, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative truncate: %v", err)
	}
}

func TestUnlinkSemantics(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", []byte("data"), rw)
	f, _ := fs.Open(c, "/f", O_RDONLY, 0)

	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
	// POSIX: the open descriptor still reads.
	buf := make([]byte, 4)
	n, err := f.Pread(c, buf, 0)
	if err != nil || n != 4 {
		t.Fatalf("read after unlink: n=%d err=%v", n, err)
	}
	f.Close()
	if _, ok := fs.InodeGeneration(f.Ino()); ok {
		t.Fatalf("inode should be gone after last close")
	}
	if err := fs.Unlink("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double unlink: %v", err)
	}
}

func TestClosedDescriptorRejected(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", []byte("x"), rw)
	f, _ := fs.Open(c, "/f", O_RDONLY, 0)
	f.Close()
	if _, err := f.Pread(c, make([]byte, 1), 0); !errors.Is(err, ErrBadFd) {
		t.Fatalf("read after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrBadFd) {
		t.Fatalf("double close: %v", err)
	}
}

func TestCachedVsDiskTiming(t *testing.T) {
	fs := newFS()
	c := clk()
	data := make([]byte, 8<<20)
	fs.WriteFile(c, "/big", data, rw)

	f, _ := fs.Open(c, "/big", O_RDONLY, 0)
	defer f.Close()
	buf := make([]byte, len(data))

	// Warm (just written): cached read at memory bandwidth.
	t0 := c.Now()
	f.Pread(c, buf, 0)
	warm := c.Now() - t0

	fs.DropCaches()
	t0 = c.Now()
	f.Pread(c, buf, 0)
	cold := c.Now() - t0

	if cold < 10*warm {
		t.Fatalf("cold read (%v) should be much slower than warm (%v)", simtime.Duration(cold), simtime.Duration(warm))
	}
	// The second cold read hits again.
	t0 = c.Now()
	f.Pread(c, buf, 0)
	rewarm := c.Now() - t0
	if rewarm > cold/5 {
		t.Fatalf("re-read should be cached: %v vs %v", simtime.Duration(rewarm), simtime.Duration(cold))
	}
}

func TestReadaheadStopsAtEOF(t *testing.T) {
	fs := newFS()
	c := clk()
	// A tiny file: a cold read must not charge a full readahead window.
	fs.WriteFile(c, "/tiny", make([]byte, 1000), rw)
	fs.DropCaches()
	fs.Disk().Reset()

	f, _ := fs.Open(c, "/tiny", O_RDONLY, 0)
	defer f.Close()
	f.Pread(c, make([]byte, 1000), 0)
	read, _, _ := fs.Disk().Stats()
	if read > 64<<10 {
		t.Fatalf("readahead overshot a 1000-byte file: read %d bytes from disk", read)
	}
}

func TestReservePinnedShrinksCache(t *testing.T) {
	fs := New(Options{
		DiskBandwidth: 132 * simtime.MBps,
		DiskSeek:      simtime.Millisecond,
		MemBandwidth:  6600 * simtime.MBps,
		CacheBytes:    4 << 20,
	})
	c := clk()
	data := make([]byte, 3<<20)
	fs.WriteFile(c, "/f", data, rw)
	if fs.CacheResident() == 0 {
		t.Fatalf("write should populate the cache")
	}
	// Pin most of RAM: the resident set must shrink on the next charge.
	fs.ReservePinned(3 << 20)
	f, _ := fs.Open(c, "/f", O_RDONLY, 0)
	defer f.Close()
	f.Pread(c, make([]byte, 1<<20), 0)
	if fs.CacheResident() > 1<<20+64<<10 {
		t.Fatalf("pinned reservation not honored: resident %d", fs.CacheResident())
	}
	fs.ReservePinned(-3 << 20)
}

func TestTimingFree(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", make([]byte, 1<<20), rw)
	fs.SetTimingFree(true)
	defer fs.SetTimingFree(false)
	before := c.Now()
	f, _ := fs.Open(c, "/f", O_RDONLY, 0)
	f.Pread(c, make([]byte, 1<<20), 0)
	f.Close()
	if c.Now() != before {
		t.Fatalf("timing-free mode charged %v", simtime.Duration(c.Now()-before))
	}
}

func TestFsyncWritesToDisk(t *testing.T) {
	fs := newFS()
	c := clk()
	f, _ := fs.Open(c, "/f", O_RDWR|O_CREATE, rw)
	defer f.Close()
	f.Pwrite(c, make([]byte, 1<<20), 0)
	fs.Disk().Reset()
	if err := f.Fsync(c); err != nil {
		t.Fatal(err)
	}
	if _, written, _ := fs.Disk().Stats(); written == 0 {
		t.Fatalf("fsync should write dirty data to disk")
	}
	// Second fsync: nothing dirty.
	fs.Disk().Reset()
	f.Fsync(c)
	if _, written, _ := fs.Disk().Stats(); written != 0 {
		t.Fatalf("fsync of clean file wrote %d bytes", written)
	}
}

func TestGenerationPeek(t *testing.T) {
	fs := newFS()
	c := clk()
	fs.WriteFile(c, "/f", []byte("v1"), rw)
	info, _ := fs.Stat("/f")
	g, ok := fs.InodeGeneration(info.Ino)
	if !ok || g != info.Generation {
		t.Fatalf("InodeGeneration mismatch: %d/%v vs %d", g, ok, info.Generation)
	}
	if _, ok := fs.InodeGeneration(99999); ok {
		t.Fatalf("unknown inode should not resolve")
	}
}

func TestTruncateThenExtendReadsZeros(t *testing.T) {
	// Regression: shrinking a file and then extending it with a write
	// must expose zeros in the gap, not pre-truncation bytes that
	// survived in the backing array's capacity.
	fs := newFS()
	c := clk()
	f, _ := fs.Open(c, "/f", O_RDWR|O_CREATE, rw)
	defer f.Close()

	f.Pwrite(c, bytes.Repeat([]byte{0xE6}, 1000), 0)
	if _, err := f.Ftruncate(c, 100); err != nil {
		t.Fatal(err)
	}
	// Extend past the old end with a distant write.
	f.Pwrite(c, []byte{0xAB}, 900)

	buf := make([]byte, 901)
	f.Pread(c, buf, 0)
	for i := 100; i < 900; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte %#x at %d resurrected after truncate+extend", buf[i], i)
		}
	}
	if buf[900] != 0xAB {
		t.Fatalf("extending write lost")
	}
}

func TestPathEdgeCases(t *testing.T) {
	fs := newFS()
	c := clk()
	// Paths are cleaned: ., .., duplicate slashes.
	fs.MkdirAll("/a/b", ModeDir|rw)
	if err := fs.WriteFile(c, "/a//b/../b/./f", []byte("x"), rw); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a/b/f"); err != nil {
		t.Fatalf("cleaned path not equivalent: %v", err)
	}
	// Relative paths are rooted.
	if _, err := fs.Stat("a/b/f"); err != nil {
		t.Fatalf("relative path: %v", err)
	}
	// Root stat.
	info, err := fs.Stat("/")
	if err != nil || !info.IsDir {
		t.Fatalf("root stat: %+v %v", info, err)
	}
	// Overlong component.
	long := strings.Repeat("x", 300)
	if _, err := fs.Open(c, "/"+long, O_CREATE|O_WRONLY, rw); !errors.Is(err, ErrNameTooBig) {
		t.Fatalf("overlong name: %v", err)
	}
}

func TestConcurrentFilesIndependent(t *testing.T) {
	fs := newFS()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clk()
			path := fmt.Sprintf("/c%d", i)
			want := bytes.Repeat([]byte{byte(i)}, 4096)
			if err := fs.WriteFile(c, path, want, rw); err != nil {
				errs[i] = err
				return
			}
			got, err := fs.ReadFile(c, path)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want) {
				errs[i] = errors.New("content mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestPreadvIsOnePread: a preadv over any split of a buffer is one pread of
// the whole buffer — the same bytes in it (past a short count too), the same
// count and error, the same clock, and the same fault draws — with the
// injector off and on at fixed seeds. Each side reads a fresh copy of the
// file several times, so the page cache warms and the injector's schedule
// advances identically on both.
func TestPreadvIsOnePread(t *testing.T) {
	const size = 10*sectorSize + 100
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i*31 + 7)
	}
	splits := []struct {
		name string
		off  int64
		lens []int
	}{
		{"one segment", 0, []int{8192}},
		{"halves", 1000, []int{4096, 4096}},
		{"uneven", 333, []int{1, 4095, 17, 9000}},
		{"empty segments", 4096, []int{0, 1000, 0, 0, 7192, 0}},
		{"no segments", 0, nil},
		{"only empty segments", 0, []int{0, 0}},
		{"straddles EOF", size - 300, []int{100, 150, 200, 50}},
		{"past EOF", size + 10, []int{64, 64}},
		{"bytes", 5, []int{1, 1, 1, 1, 1, 1, 1, 1}},
	}
	injectors := []struct {
		name string
		cfg  *faults.Config
	}{
		{"off", nil},
		{"short reads", &faults.Config{Seed: 3, HostShortReadProb: 0.6}},
		{"EIO", &faults.Config{Seed: 7, HostReadEIOProb: 0.4}},
		{"bad sectors", &faults.Config{Seed: 11, BadSectorRate: 0.15}},
		{"all three", &faults.Config{Seed: 13, HostShortReadProb: 0.5, HostReadEIOProb: 0.2, BadSectorRate: 0.05}},
	}
	fired := map[string]int64{}
	for _, sp := range splits {
		for _, ic := range injectors {
			t.Run(sp.name+"/"+ic.name, func(t *testing.T) {
				open := func() (*File, *faults.Injector) {
					fs := newFS()
					if err := fs.WriteFile(clk(), "/f", content, rw); err != nil {
						t.Fatal(err)
					}
					var inj *faults.Injector
					if ic.cfg != nil {
						inj = faults.New(*ic.cfg)
						fs.SetFaultInjector(inj)
					}
					f, err := fs.Open(clk(), "/f", O_RDONLY, 0)
					if err != nil {
						t.Fatal(err)
					}
					return f, inj
				}
				one, oneInj := open()
				vec, vecInj := open()
				total := 0
				for _, l := range sp.lens {
					total += l
				}
				c1, cv := simtime.NewClock(simtime.Time(simtime.Second)), simtime.NewClock(simtime.Time(simtime.Second))
				for rep := 0; rep < 6; rep++ {
					want := bytes.Repeat([]byte{0xEE}, total)
					got := bytes.Repeat([]byte{0xEE}, total)
					var dsts [][]byte
					at := 0
					for _, l := range sp.lens {
						dsts = append(dsts, got[at:at+l:at+l])
						at += l
					}
					n1, err1 := one.Pread(c1, want, sp.off)
					nv, errv := vec.Preadv(cv, dsts, sp.off)
					if n1 != nv || fmt.Sprint(err1) != fmt.Sprint(errv) {
						t.Fatalf("read %d: preadv gave (%d, %v), pread (%d, %v)", rep, nv, errv, n1, err1)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("read %d: the segments hold other bytes than the one buffer", rep)
					}
					if c1.Now() != cv.Now() {
						t.Fatalf("read %d: preadv's clock reads %v, pread's %v", rep, cv.Now(), c1.Now())
					}
				}
				for s := faults.Site(0); int(s) < faults.NumSites(); s++ {
					if a, b := oneInj.Injected(s), vecInj.Injected(s); a != b {
						t.Errorf("%v fired %d times under preadv, %d under pread", s, b, a)
					}
				}
				fired[ic.name] += vecInj.TotalInjected()
			})
		}
	}
	for _, ic := range injectors[1:] {
		if fired[ic.name] == 0 {
			t.Errorf("injector %q never fired: its comparison checked nothing", ic.name)
		}
	}
}

func TestMkdirAllThroughAFile(t *testing.T) {
	fs := newFS()
	c := clk()
	if err := fs.MkdirAll("/a", ModeDir|rw); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(c, "/a/file", []byte("x"), rw)
	if err := fs.MkdirAll("/a/file/b/c", ModeDir|rw); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through a regular file: %v", err)
	}
	if err := fs.MkdirAll("/a/file", ModeDir|rw); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll onto a regular file: %v", err)
	}
	if _, err := fs.Stat("/a/file/b"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("stat under the file: %v", err)
	}
	if err := fs.MkdirAll("/a/"+strings.Repeat("x", 300)+"/b", ModeDir|rw); !errors.Is(err, ErrNameTooBig) {
		t.Fatalf("overlong component: %v", err)
	}
	// Existing directories are walked, missing ones made, and a repeat is
	// a no-op.
	for i := 0; i < 2; i++ {
		if err := fs.MkdirAll("/a/d/e", ModeDir|rw); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := fs.Stat("/a/d/e"); err != nil || !info.IsDir {
		t.Fatalf("made path: %+v %v", info, err)
	}
}

// checkUnitCounts holds the page cache's per-inode unit counts to what is
// resident: each equals its inode's units in the index, and they sum to
// resident()/cacheUnit.
func checkUnitCounts(t *testing.T, pc *pageCache, step string) {
	t.Helper()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	want := make(map[int64]int64)
	for key := range pc.index {
		want[key.ino]++
	}
	var sum int64
	for ino, n := range pc.units {
		if n != want[ino] {
			t.Fatalf("%s: inode %d counts %d units, %d resident", step, ino, n, want[ino])
		}
		sum += n
	}
	if len(want) != len(pc.units) {
		t.Fatalf("%s: %d inodes resident, %d counted", step, len(want), len(pc.units))
	}
	if sum != pc.bytes/cacheUnit {
		t.Fatalf("%s: counts sum to %d units, %d bytes resident", step, sum, pc.bytes)
	}
}

// residentUnits lists inode ino's resident units, and how many are dirty.
func residentUnits(pc *pageCache, ino int64) (units []int64, dirty int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key, el := range pc.index {
		if key.ino == ino {
			units = append(units, key.unit)
			if el.Value.(*cacheEntry).dirty {
				dirty++
			}
		}
	}
	return units, dirty
}

// TestPageCacheUnitCounts drives creates, reads, writes, syncs, truncates,
// unlinks and drops through a cache small enough to evict, and checks the
// per-inode unit counts after each, plus that the walks they shorten still
// reach every unit they must: a truncate leaves nothing past the new end, a
// sync nothing dirty, an unlink nothing at all.
func TestPageCacheUnitCounts(t *testing.T) {
	fs := New(Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        8 * simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      24 * cacheUnit, // small enough that charges evict
		SyscallOverhead: 4 * simtime.Microsecond,
	})
	c := clk()
	rng := rand.New(rand.NewSource(7))
	names := []string{"/u0", "/u1", "/u2", "/u3", "/u4"}
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "create"
			fs.WriteFile(c, name, make([]byte, rng.Int63n(12*cacheUnit)), rw)
		case op < 5:
			what = "read"
			fs.ReadFile(c, name)
		case op < 6:
			what = "drop"
			fs.DropCaches()
		case op < 7:
			what = "write+sync"
			if f, err := fs.Open(c, name, O_RDWR|O_CREATE, rw); err == nil {
				f.Pwrite(c, make([]byte, cacheUnit), rng.Int63n(16*cacheUnit))
				f.Fsync(c)
				if _, dirty := residentUnits(fs.cache, f.Ino()); dirty != 0 {
					t.Fatalf("step %d: %d dirty units of %s after fsync", step, dirty, name)
				}
				f.Close()
			}
		case op < 9:
			what = "truncate"
			if f, err := fs.Open(c, name, O_RDWR, 0); err == nil {
				size := rng.Int63n(8 * cacheUnit)
				f.Ftruncate(c, size)
				units, _ := residentUnits(fs.cache, f.Ino())
				for _, u := range units {
					if u*cacheUnit >= size {
						t.Fatalf("step %d: unit %d of %s resident past truncation to %d", step, u, name, size)
					}
				}
				f.Close()
			}
		default:
			what = "unlink"
			if info, err := fs.Stat(name); err == nil {
				fs.Unlink(name)
				if units, _ := residentUnits(fs.cache, info.Ino); len(units) != 0 {
					t.Fatalf("step %d: %d units of unlinked %s resident", step, len(units), name)
				}
			}
		}
		checkUnitCounts(t, fs.cache, fmt.Sprintf("step %d (%s %s)", step, what, name))
	}
}
