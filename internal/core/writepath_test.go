package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// The write path's contracts beyond its costs (cost_test.go): generations are
// adopted from the writes' replies and only forwards, a page filled by
// overwrite is never seen unfilled, and both hold under injected faults.

// hostGen reads the host file's current generation.
func (h *harness) hostGen(t *testing.T, path string) int64 {
	t.Helper()
	info, err := h.host.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Generation
}

// TestAdoptGenerationOnlyMovesForward: write-backs of one file finish in any
// order, and the one that learned the older generation may report last.
func TestAdoptGenerationOnlyMovesForward(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/g", make([]byte, 16))
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/g", O_RDWR)
		if err != nil {
			return err
		}
		fc := fs.ft.fds[fd].fc
		opened := fc.gen.Load()
		fs.adoptGeneration(fc, opened+6)
		fs.adoptGeneration(fc, opened+5)
		if got := fc.gen.Load(); got != opened+6 {
			t.Errorf("cached generation %d after adopting +6 then +5, want +6 = %d", got, opened+6)
		}
		if !h.layer.Validate(0, fc.ino, opened+6) {
			t.Errorf("the consistency layer's record moved backwards: it no longer validates at +6")
		}
		return fs.Close(b, fd)
	})
}

// TestConcurrentWriteBackKeepsGenerationCurrent: 16 blocks write pages of one
// file, gfsync it while their neighbours do and while evictions write back
// too, leave one more page each dirty, and gclose (which does not sync).
// Every later open — the blocks scheduled after the first eight closed, and
// the reopen that follows the kernel — must find the cached generation equal
// to the host's: a generation that lags makes the open drop the cache, and the
// dirty pages with it.
func TestConcurrentWriteBackKeepsGenerationCurrent(t *testing.T) {
	const (
		blocks = 16
		rounds = 40
	)
	opt := defaultOpt()
	opt.BufferCacheBytes = 24 * opt.PageSize // smaller than the file: evictions write back as well
	ps := int(opt.PageSize)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/g", make([]byte, 2*blocks*ps))
	// Block i's two pages in a round: the first it gfsyncs, the second it
	// leaves to the reopen.
	fill := func(round, idx, which int) []byte {
		return bytes.Repeat([]byte{byte(round*2*blocks + 2*idx + which + 1)}, ps)
	}

	for round := 0; round < rounds && !t.Failed(); round++ {
		h.devs[0].ResetTime() // all eight slots free at once: blocks run side by side
		h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/g", O_RDWR)
			if err != nil {
				return err
			}
			if _, err := fs.Write(b, fd, fill(round, b.Idx, 0), int64(2*b.Idx*ps)); err != nil {
				return err
			}
			if err := fs.Fsync(b, fd); err != nil {
				return err
			}
			if _, err := fs.Write(b, fd, fill(round, b.Idx, 1), int64((2*b.Idx+1)*ps)); err != nil {
				return err
			}
			return fs.Close(b, fd)
		})
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/g", O_RDWR)
			if err != nil {
				return err
			}
			if err := fs.Fsync(b, fd); err != nil {
				return err
			}
			if got, want := fs.ft.fds[fd].fc.gen.Load(), h.hostGen(t, "/g"); got != want {
				t.Errorf("round %d: cached generation %d after the gfsync, host is at %d", round, got, want)
			}
			return fs.Close(b, fd)
		})
		host := h.read(t, "/g")
		for i := 0; i < blocks; i++ {
			for which := 0; which < 2; which++ {
				off := (2*i + which) * ps
				if want := fill(round, i, which); !bytes.Equal(host[off:off+ps], want) {
					t.Errorf("round %d: block %d's page %d holds %#x on the host, want %#x (a dirty page was dropped)",
						round, i, which, host[off], want[0])
				}
			}
		}
	}
	if s := fs.Snapshot(); s.HostOpens != 1 || s.ClosedTableReuses < rounds {
		t.Errorf("%d host opens and %d closed-table reuses over %d rounds, want 1 and at least %d: a reopen found the generation stale",
			s.HostOpens, s.ClosedTableReuses, rounds, rounds)
	}
	if _, inv := h.layer.Stats(); inv != 0 {
		t.Errorf("%d invalidations with no other processor writing", inv)
	}
	h.checkDirtyCounts(t)
}

// TestOverwriteFillIsNeverSeenUnfilled: one block overwrites whole pages,
// alternating between a page's original bytes and their complement, while
// seven others gread them through a cache small enough that every page is
// evicted and brought back many times — by fetch for the readers, by
// overwrite for the writer. Every read is one of the two values: a frame
// published before the writer's bytes are in it would read as zeros (or a
// previous tenant's page).
func TestOverwriteFillIsNeverSeenUnfilled(t *testing.T) {
	const (
		pages  = 48
		passes = 6
		blocks = 8
	)
	opt := defaultOpt()
	opt.BufferCacheBytes = 16 * opt.PageSize
	ps := int(opt.PageSize)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	orig := pattern(pages*ps, 3)
	comp := make([]byte, len(orig))
	for i, v := range orig {
		comp[i] = ^v
	}
	h.write(t, "/two", orig)

	h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/two", O_RDWR)
		if err != nil {
			return err
		}
		if b.Idx == 0 {
			for pass := 0; pass < passes; pass++ {
				src := comp
				if pass%2 == 1 {
					src = orig
				}
				for p := 0; p < pages; p++ {
					if _, err := fs.Write(b, fd, src[p*ps:(p+1)*ps], int64(p*ps)); err != nil {
						return err
					}
				}
			}
			return fs.Close(b, fd)
		}
		buf := make([]byte, ps)
		for i := 0; i < passes*pages; i++ {
			p := (i*7 + b.Idx*11) % pages
			if n, err := fs.Read(b, fd, buf, int64(p*ps)); err != nil || n != ps {
				return fmt.Errorf("read of page %d: n=%d err=%v", p, n, err)
			}
			if !bytes.Equal(buf, orig[p*ps:(p+1)*ps]) && !bytes.Equal(buf, comp[p*ps:(p+1)*ps]) {
				return fmt.Errorf("page %d read as neither its original bytes nor their complement (first byte %#x, want %#x or %#x)",
					p, buf[0], orig[p*ps], comp[p*ps])
			}
		}
		return fs.Close(b, fd)
	})
	if got := fs.cache.Reclaimed(); got < pages {
		t.Errorf("only %d pages were evicted: the cache was meant to be too small for the file", got)
	}
	h.checkDirtyCounts(t)
}

// runsOf is how many gathered writes a gfsync of k adjacent dirty pages of
// size ps sends: one per maxHostIO of them.
func runsOf(k, ps int64) int64 {
	per := maxHostIO / ps
	return (k + per - 1) / per
}

// TestWriteBackUnderDroppedResponses: with half of all responses lost, every
// gathered write-back is retried until its response gets through, and a retry
// is answered from the ring's dedup table. The host must have been written
// once per run of adjacent pages, the generations those writes produced must
// have been adopted all the same (the reply lives in the call the first
// attempt filled), and the worker must have been charged a dispatch per
// attempt plus one pwrite per run: nothing for the transfers it does not sit
// through, nothing twice.
func TestWriteBackUnderDroppedResponses(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	const runs = 2
	k := runs * maxHostIO / ps // whole runs, one pwrite of maxHostIO each
	h := newFaultHarness(t, opt, faults.Config{Seed: 7, RPCDropResponseProb: 0.5}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/d", make([]byte, k*ps))
	want := pattern(int(k*ps), 5)
	opened := h.hostGen(t, "/d")

	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/d", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, want, 0); err != nil {
			return err
		}
		attempts, busy := h.server.Requests(rpc.OpWritePages), h.server.DaemonBusy()
		h.inj.SetEnabled(true)
		err = fs.Fsync(b, fd)
		h.inj.SetEnabled(false)
		if err != nil {
			return err
		}
		attempts = h.server.Requests(rpc.OpWritePages) - attempts
		if attempts <= runs || fs.Client().Timeouts() == 0 {
			t.Errorf("%d write attempts for %d runs, %d timeouts: no response was dropped", attempts, runs, fs.Client().Timeouts())
		}
		pwrite := rigHost.SyscallOverhead + simtime.TransferTime(maxHostIO, rigHost.MemBandwidth)
		if got, want := h.server.DaemonBusy()-busy, simtime.Duration(attempts)*rigRPC.HandleCost+runs*pwrite; got != want {
			t.Errorf("worker busy %v over the gfsync, want %d dispatches + %d pwrites = %v", got, attempts, runs, want)
		}
		if got := h.hostGen(t, "/d"); got != opened+runs {
			t.Errorf("host generation moved by %d, want %d: a retried write was applied again", got-opened, runs)
		}
		if got := fs.ft.fds[fd].fc.gen.Load(); got != opened+runs {
			t.Errorf("cached generation %d, host is at %d: a retried write's generation was not adopted", got, opened+runs)
		}
		return fs.Close(b, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.read(t, "/d"); !bytes.Equal(got, want) {
		t.Error("host content differs from what was written")
	}
	h.checkDirtyCounts(t)
}

// TestPipelinedWriteBackUnderFaults is the pipelined reading of the test
// above: a gfsync issues all its gathered writes before it waits for any, each
// running the transport's retry protocol on a timeline of its own. Under
// dropped responses and under transient bounces every run is applied exactly
// once, every page of a run lands when its run does, and the gfsync returns
// when the write that took longest has landed — the latest Frame.CleanAt —
// not after the retries of all runs one behind another.
func TestPipelinedWriteBackUnderFaults(t *testing.T) {
	const k = 24
	for name, cfg := range map[string]faults.Config{
		"dropped responses": {Seed: 7, RPCDropResponseProb: 0.5},
		"transient bounces": {Seed: 7, RPCTransientProb: 0.5},
	} {
		t.Run(name, func(t *testing.T) {
			opt := defaultOpt()
			ps := opt.PageSize
			per, runs := maxHostIO/ps, runsOf(k, ps)
			h := newFaultHarness(t, opt, cfg, 1, 1)
			fs := h.fss[0]
			h.inj.SetEnabled(false)
			h.write(t, "/p", make([]byte, k*ps))
			want := pattern(int(k*ps), 5)
			opened := h.hostGen(t, "/p")

			_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
				fd, err := fs.Open(b, "/p", O_RDWR)
				if err != nil {
					return err
				}
				if _, err := fs.Write(b, fd, want, 0); err != nil {
					return err
				}
				h.inj.SetEnabled(true)
				start := b.Clock.Now()
				err = fs.Fsync(b, fd)
				end := b.Clock.Now()
				h.inj.SetEnabled(false)
				if err != nil {
					return err
				}
				if fs.Client().Retries() == 0 {
					t.Error("no write was retried: the fault schedule injected nothing")
				}
				// The block is alone on its MP, so run j was issued j issue
				// charges into the gfsync.
				var latest simtime.Time
				var serial simtime.Duration
				for j := int64(0); j < runs; j++ {
					var landed simtime.Time
					for i := j * per; i < min(k, (j+1)*per); i++ {
						_, fp := slotOf(t, fs, fd, uint64(i))
						at := simtime.Time(fs.cache.Frame(fp.Frame()).CleanAt.Load())
						if i == j*per {
							landed = at
						} else if at != landed {
							t.Errorf("page %d of run %d landed at %v, the run's first page at %v", i, j, at, landed)
						}
					}
					latest = max(latest, landed)
					serial += landed.Sub(start.Add(simtime.Duration(j) * opt.APICostPerPage))
				}
				if end != latest {
					t.Errorf("gfsync returned at %v, the last of its writes landed at %v", end, latest)
				}
				if cost := end.Sub(start); cost >= serial {
					t.Errorf("gfsync cost %v, its writes one after another would have cost %v", cost, serial)
				}
				if got := h.hostGen(t, "/p"); got != opened+runs {
					t.Errorf("host generation moved by %d, want %d: a retried write was applied again", got-opened, runs)
				}
				return fs.Close(b, fd)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.read(t, "/p"); !bytes.Equal(got, want) {
				t.Error("host content differs from what was written")
			}
			h.checkDirtyCounts(t)
		})
	}
}

// TestGfsyncJoinsAnotherBlocksWriteBack (ROADMAP item 2(a)): block A's gfsync
// clears page p's dirty flag and its write, issued at I, lands at T. Block B
// gfsyncs the same file with its clock inside [I, T) and finds p clean: it may
// not return before T — until then the bytes are on their way, not on the
// host. With its clock still before I, B precedes the write in virtual order
// and does not wait for it (see landing).
func TestGfsyncJoinsAnotherBlocksWriteBack(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/j", make([]byte, opt.PageSize))
	want := pattern(int(opt.PageSize), 3)
	var returned simtime.Time // A's clock when its gfsync returned
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/j", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, want, 0); err != nil {
			return err
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		returned = b.Clock.Now()
		return fs.Close(b, fd)
	})
	// B is issued at time 0 as A was: the two overlap in virtual time.
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/j", O_RDWR)
		if err != nil {
			return err
		}
		_, fp := slotOf(t, fs, fd, 0)
		fr := fs.cache.Frame(fp.Frame())
		issued, landed := simtime.Time(fr.WroteAt.Load()), simtime.Time(fr.CleanAt.Load())
		if fr.Dirty.Load() || landed != returned || b.Clock.Now() >= issued {
			t.Errorf("rig: page dirty=%v, its write issued at %v and landing at %v; A's gfsync returned at %v, B is at %v",
				fr.Dirty.Load(), issued, landed, returned, b.Clock.Now())
			return fs.Close(b, fd)
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		if now := b.Clock.Now(); now >= issued {
			t.Errorf("B's gfsync, begun before the write was issued at %v, returned at %v", issued, now)
		}
		b.Clock.AdvanceTo(issued)
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		if now := b.Clock.Now(); now != landed {
			t.Errorf("B's gfsync, begun with the write in flight, returned at %v; the write landed at %v", now, landed)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/j"); !bytes.Equal(got, want) {
		t.Error("the host does not hold A's bytes")
	}
	h.checkDirtyCounts(t)
}

// TestFailedGatheredWriteBack: a run of k adjacent dirty pages fails as one
// write. Every page of it is dirty again and counted once, the gfsync that
// issued it reports the error and the file adopts no generation from it; the
// next gfsync, faults gone, is silent and leaves the host equal to what was
// written.
func TestFailedGatheredWriteBack(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	k := maxHostIO / ps
	h := newFaultHarness(t, opt, faults.Config{Seed: 1, HostWriteEIOProb: 1}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/v", make([]byte, k*ps))
	want := pattern(int(k*ps), 6)
	opened := h.hostGen(t, "/v")

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/v", O_RDWR)
		if err != nil {
			return err
		}
		gwrite(t, fs, b, fd, want, 0)
		writes := h.server.Requests(rpc.OpWritePages)
		h.inj.SetEnabled(true)
		err = fs.Fsync(b, fd)
		h.inj.SetEnabled(false)
		if !errors.Is(err, hostfs.ErrIO) {
			t.Errorf("gfsync of a failing run returned %v, want EIO", err)
		}
		if got := h.server.Requests(rpc.OpWritePages) - writes; got != 1 {
			t.Errorf("%d adjacent pages went out in %d writes, want 1", k, got)
		}
		fc := fs.ft.fds[fd].fc
		for i := uint64(0); i < uint64(k); i++ {
			if _, fp := slotOf(t, fs, fd, i); !fs.cache.Frame(fp.Frame()).Dirty.Load() {
				t.Errorf("page %d of the failed run is clean", i)
			}
		}
		checkDirtyCounts(t, fs)
		if got := fc.gen.Load(); got != opened || h.hostGen(t, "/v") != opened {
			t.Errorf("generation %d cached, %d on the host after a failed write; want both still %d", got, h.hostGen(t, "/v"), opened)
		}
		if err := fs.Fsync(b, fd); err != nil {
			t.Errorf("the retrying gfsync returned %v, want the error reported once", err)
		}
		if got, want := fc.gen.Load(), h.hostGen(t, "/v"); got != want || want != opened+1 {
			t.Errorf("cached generation %d after the retry, host at %d, want %d", got, want, opened+1)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/v"); !bytes.Equal(got, want) {
		t.Error("host content differs from what was written")
	}
	h.checkDirtyCounts(t)
}

// failSecondWrite returns a fault schedule under which the first host pwrite
// succeeds and the second fails.
func failSecondWrite(t *testing.T) faults.Config {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		cfg := faults.Config{Seed: seed, HostWriteEIOProb: 0.5}
		if probe := faults.New(cfg); !probe.Should(faults.HostWriteEIO, 0) && probe.Should(faults.HostWriteEIO, 0) {
			return cfg
		}
	}
	t.Fatal("no seed under 1000 passes the first write and fails the second")
	return faults.Config{}
}

// TestFailedWriteBackOfAnOverwrittenPage: a page that entered the cache by
// overwrite and whose write-back fails with EIO is dirty again, counted once,
// and the error surfaces once; when it fails on the second of two ranges, the
// file has still adopted the generation the first range's write produced.
func TestFailedWriteBackOfAnOverwrittenPage(t *testing.T) {
	opt := defaultOpt()
	ps := int(opt.PageSize)
	h := newFaultHarness(t, opt, failSecondWrite(t), 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	// Two runs of non-zero bytes further apart than write-back coalesces:
	// an O_GWRONCE page diffs against zeros, so it is written back as two
	// ranges.
	page := make([]byte, ps)
	copy(page, bytes.Repeat([]byte{0xA1}, 1024))
	copy(page[ps-1024:], bytes.Repeat([]byte{0xB2}, 1024))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/once", O_GWRONCE|O_CREATE)
		if err != nil {
			return err
		}
		reads := h.server.Requests(rpc.OpReadPages)
		if _, err := fs.Write(b, fd, page, 0); err != nil {
			return err
		}
		if got := h.server.Requests(rpc.OpReadPages) - reads; got != 0 {
			t.Errorf("whole-page write miss sent %d reads", got)
		}
		fc, fp := slotOf(t, fs, fd, 0)
		opened := h.hostGen(t, "/once")

		h.inj.SetEnabled(true)
		n := fs.evictFromFile(fs.blockActor(b), victim{fc: fc, hostFd: fs.ft.fds[fd].hostFd, class: 2}, 1, evictAny)
		h.inj.SetEnabled(false)
		if n != 0 {
			t.Errorf("reclaimed %d pages whose write-back failed", n)
		}
		if fr := fs.cache.Frame(fp.Frame()); !fp.Ready() || !fr.Dirty.Load() {
			t.Errorf("after the failed write-back: ready=%v dirty=%v, want the page resident and dirty again", fp.Ready(), fr.Dirty.Load())
		}
		checkDirtyCounts(t, fs)
		if got := h.hostGen(t, "/once"); got != opened+1 {
			t.Fatalf("host generation moved by %d, want 1: the schedule was meant to pass the first range and fail the second", got-opened)
		}
		if got := fc.gen.Load(); got != opened+1 {
			t.Errorf("cached generation %d, want %d: the first range reached the host and its generation must be adopted", got, opened+1)
		}

		// The sticky error surfaces once; the gfsync that reports it has
		// written the page back.
		if err := fs.Fsync(b, fd); !errors.Is(err, hostfs.ErrIO) {
			t.Errorf("gfsync after the failed eviction returned %v, want the deferred EIO", err)
		}
		if err := fs.Fsync(b, fd); err != nil {
			t.Errorf("second gfsync returned %v, want the error reported once", err)
		}
		if got, want := fc.gen.Load(), h.hostGen(t, "/once"); got != want {
			t.Errorf("cached generation %d after the gfsync, host is at %d", got, want)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/once"); !bytes.Equal(got, page) {
		t.Error("host content differs from the written page")
	}
	h.checkDirtyCounts(t)
}
