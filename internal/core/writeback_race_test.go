package core

import (
	"bytes"
	"testing"
	"time"

	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
)

// TestConcurrentFsyncKeepsHostCurrent is the regression test for the lost
// update under concurrent whole-file gfsync (benchmark/KNOWN_ISSUES.md #1).
// Writer blocks own private slices of ONE page and gfsync the whole file
// after every write, so every write-back ships every writer's slice. Without
// serialisation a block can snapshot the page, lose the CPU, and land its
// RPC after a neighbour wrote, snapshotted newer bytes and completed — the
// older snapshot then sits on the host under a clean page, and nothing
// repairs it. The check is the benchmark's: once every block's gfsync and
// gclose have returned, the host holds every writer's last pattern. Only a
// race in a kernel's last passes survives to be seen, hence many short
// kernels.
func TestConcurrentFsyncKeepsHostCurrent(t *testing.T) {
	const (
		writers = 8 // the harness device runs 8 blocks at once
		passes  = 2
		rounds  = 200
	)
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	slice := int(opt.PageSize) / writers
	h.write(t, "/shared", make([]byte, opt.PageSize))

	for round := 0; round < rounds && !t.Failed(); round++ {
		// Rewind the device so every slot is free at once and the eight
		// blocks run side by side, not in virtual-time turns.
		h.devs[0].ResetTime()
		h.runBlocks(t, 0, writers, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/shared", O_RDWR)
			if err != nil {
				return err
			}
			for p := 0; p < passes; p++ {
				want := bytes.Repeat([]byte{byte(round*passes + p + b.Idx + 1)}, slice)
				if _, err := fs.Write(b, fd, want, int64(b.Idx*slice)); err != nil {
					return err
				}
				if err := fs.Fsync(b, fd); err != nil {
					return err
				}
			}
			return fs.Close(b, fd)
		})
		host := h.read(t, "/shared")
		for w := 0; w < writers; w++ {
			want := bytes.Repeat([]byte{byte(round*passes + passes + w)}, slice)
			if got := host[w*slice : (w+1)*slice]; !bytes.Equal(got, want) {
				t.Errorf("round %d: after the final gclose writer %d's slice holds %#x on the host, want its last pattern %#x",
					round, w, got[0], want[0])
			}
		}
	}
}

// writeTally is what a GPU has sent the host so far: write requests served
// and bytes moved device to host.
type writeTally struct{ writes, bytes int64 }

func tallyWrites(h *harness, fs *FS) writeTally {
	_, d2h, _ := fs.Client().Link().Stats()
	return writeTally{h.server.Requests(rpc.OpWritePages), d2h}
}

// gathered reports whether a write-back between t and now was gathered from
// more than one page: a write of one page moves at most a page, so only one
// gathered from several moves more per request. A retried or deduplicated
// resend only adds requests, so faults can hide a gathered write, never fake
// one.
func (t writeTally) gathered(now writeTally, pageSize int64) bool {
	return now.bytes-t.bytes > pageSize*(now.writes-t.writes)
}

// TestGatheredWriteBacksDoNotDeadlock: a walk holds the WriteBack locks of the
// pages queued in its run while it takes the next page's. Two blocks gfsync a
// file whose dirty runs overlap, while a third runs cleaner passes over it; the
// file's second leaf was made first, so whole-file walks meet its pages before
// the first leaf's and a run breaks at the leaf boundary. Pages are queued in
// ascending file order only — the lock order — so nobody waits for a lock
// held by someone waiting for one of its own. Both writers end on the same
// last pattern: once every block has returned, a final gfsync leaves it on the
// host.
func TestGatheredWriteBacksDoNotDeadlock(t *testing.T) {
	const (
		passes = 6
		first  = 56 // the writers' runs straddle the leaf boundary at page 64
		span   = 16 // pages each writer dirties per pass
		skew   = 4  // the second writer's run starts this many pages later
	)
	opt := defaultOpt()
	opt.BufferCacheBytes = 256 * opt.PageSize
	ps := int(opt.PageSize)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	size := (first + span + skew) * ps
	h.write(t, "/g", make([]byte, size))
	fill := func(pass int) []byte { return bytes.Repeat([]byte{byte(pass + 1)}, span*ps) }

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/g", O_RDWR)
		if err != nil {
			return err
		}
		// The second leaf first: its pages lead every walk of the file.
		greadAt(t, fs, b, fd, int64(ps), 70*int64(ps))
		greadAt(t, fs, b, fd, int64(ps), 0)
		return fs.Close(b, fd)
	})
	h.devs[0].ResetTime()
	before := tallyWrites(h, fs)
	done := make(chan error, 1)
	go func() {
		_, err := h.devs[0].Launch(0, 3, 64, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/g", O_RDWR)
			if err != nil {
				return err
			}
			for pass := 0; pass < passes; pass++ {
				if b.Idx == 2 {
					if fs.cleaner.busy.CompareAndSwap(false, true) {
						fs.runCleanerPass(fs.cleaner.a)
						fs.cleaner.busy.Store(false)
					}
					continue
				}
				off := int64((first + b.Idx*skew) * ps)
				if _, err := fs.Write(b, fd, fill(pass), off); err != nil {
					return err
				}
				if err := fs.Fsync(b, fd); err != nil {
					return err
				}
			}
			return fs.Close(b, fd)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the gfsyncs and the cleaner pass did not finish: write-back deadlocked")
	}
	if !before.gathered(tallyWrites(h, fs), opt.PageSize) {
		t.Error("no write-back was gathered from more than one page")
	}
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/g", O_RDWR)
		if err != nil {
			return err
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	host := h.read(t, "/g")
	last := fill(passes - 1)[0]
	for p := first; p < first+span+skew; p++ {
		if got := host[p*ps]; got != last || !bytes.Equal(host[p*ps:(p+1)*ps], bytes.Repeat([]byte{last}, ps)) {
			t.Errorf("page %d holds %#x on the host, want the last pass's %#x", p, got, last)
		}
	}
	h.checkDirtyCounts(t)
}
