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

// The read a host open carries (offer / settle / accept in page.go), under the
// faults that can reach it. The contract: the open is never worse off for
// having offered — a carried read that fails costs the open nothing but the
// pages, and the gread that wanted them meets the host as it would have
// without the offer. The extended system (defaultOpt: 16 KiB pages) offers an
// open eight frames; the prototype offers none.

// TestCarriedReadFailureIsTheGreadsToMeet: the host cannot read the file — a
// transient EIO on every pread, or bad sectors under it — when the open tries
// to carry it. The gopen succeeds and brings nothing: no page resident, no
// frame held, OpenFilled unmoved. The first gread then fails with the host's
// error, and succeeds once the fault has cleared (where it can), exactly as
// on the prototype, whose opens offer nothing.
func TestCarriedReadFailureIsTheGreadsToMeet(t *testing.T) {
	type outcome struct {
		Filled, Resident, Allocs int64
		FreeAfterOpen            int
		ReadErr                  string
		Retried                  bool
	}
	for name, cfg := range map[string]faults.Config{
		"EIO":        {Seed: 3, HostReadEIOProb: 1},
		"bad sector": {Seed: 3, BadSectorRate: 1},
	} {
		t.Run(name, func(t *testing.T) {
			want := pattern(2*int(defaultOpt().PageSize), 4)
			run := func(opt Options) (o outcome) {
				h := newFaultHarness(t, opt, cfg, 1, 1)
				fs := h.fss[0]
				h.inj.SetEnabled(false)
				h.write(t, "/c", want)
				h.run(t, 0, func(b *gpu.Block) error {
					h.inj.SetEnabled(true)
					fd, err := fs.Open(b, "/c", O_RDONLY)
					if err != nil {
						t.Fatalf("gopen under a failing carried read: %v", err)
					}
					o.Filled, o.Resident = fs.openFilled.Load(), fs.ResidentPages("/c")
					o.Allocs, o.FreeAfterOpen = fs.cache.Allocs(), fs.cache.FreeFrames()
					buf := make([]byte, len(want))
					_, err = fs.Read(b, fd, buf, 0)
					if !errors.Is(err, hostfs.ErrIO) {
						t.Errorf("first gread: %v, want the host's I/O error", err)
					} else {
						o.ReadErr = err.Error()
					}
					h.inj.SetEnabled(false)
					n, err := fs.Read(b, fd, buf, 0)
					o.Retried = err == nil && n == len(want) && bytes.Equal(buf, want)
					return fs.Close(b, fd)
				})
				if injected := h.inj.TotalInjected(); injected == 0 {
					t.Fatal("no fault fired")
				}
				return o
			}
			offered, parent := run(defaultOpt()), run(prototypeOpt())
			if offered != parent {
				t.Errorf("an open whose carried read failed left\n%+v\nand one that offered nothing\n%+v", offered, parent)
			}
			if offered.Filled != 0 || offered.Resident != 0 || offered.Allocs != 0 || !offered.Retried {
				t.Errorf("after the failed carry: %+v; want nothing filled, resident or allocated, and the retry to succeed", offered)
			}
		})
	}
}

// TestCarriedOpenUnderDroppedResponses: every response has even odds of being
// lost, so most opens are retried until one gets through, and a retry is
// answered from the ring's dedup table. The host must have run each open —
// its open, its stat, its pread and its DMA — once, each page must have been
// published once, and the bytes must be the file's.
func TestCarriedOpenUnderDroppedResponses(t *testing.T) {
	const files = 8
	opt := defaultOpt()
	ps := opt.PageSize
	h := newFaultHarness(t, opt, faults.Config{Seed: 11, RPCDropResponseProb: 0.5}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d", i)
		h.write(t, paths[i], pattern(2*int(ps), byte(i)))
	}

	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		busy := h.server.DaemonBusy()
		_, _, dmas := fs.Client().Link().Stats()
		fds := make([]int, files)
		h.inj.SetEnabled(true)
		for i, p := range paths {
			fd, err := fs.Open(b, p, O_RDONLY)
			if err != nil {
				return err
			}
			fds[i] = fd
		}
		h.inj.SetEnabled(false)

		attempts := h.server.Requests(rpc.OpOpen)
		if attempts <= files || fs.Client().Timeouts() == 0 {
			t.Errorf("%d open attempts for %d files, %d timeouts: no response was dropped", attempts, files, fs.Client().Timeouts())
		}
		hostWork := 2*rigHost.SyscallOverhead + rigHost.SyscallOverhead + simtime.TransferTime(2*ps, rigHost.MemBandwidth)
		if got, want := h.server.DaemonBusy()-busy, simtime.Duration(attempts)*rigRPC.HandleCost+files*hostWork; got != want {
			t.Errorf("worker busy %v over the opens, want %d dispatches + %d x (open, stat, pread) = %v: a retried open ran again", got, attempts, files, want)
		}
		if _, _, now := fs.Client().Link().Stats(); now-dmas != files {
			t.Errorf("%d DMAs for %d carried files", now-dmas, files)
		}
		if filled, allocs, free := fs.openFilled.Load(), fs.cache.Allocs(), fs.cache.NumFrames()-fs.cache.FreeFrames(); filled != 2*files || allocs != 2*files || free != 2*files {
			t.Errorf("%d pages filled, %d frames allocated, %d in use; want %d each: a page was published twice or a frame leaked", filled, allocs, free, 2*files)
		}

		requests := h.server.TotalRequests()
		for i, fd := range fds {
			buf := make([]byte, 2*ps)
			if n, err := fs.Read(b, fd, buf, 0); err != nil || n != len(buf) || !bytes.Equal(buf, pattern(len(buf), byte(i))) {
				t.Errorf("%s: gread n=%d err=%v, or the carried bytes are not the file's", paths[i], n, err)
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
		}
		if got := h.server.TotalRequests() - requests; got != 0 {
			t.Errorf("reading and closing the carried files sent %d requests, want none", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCarriedReadUnderShortReads: the daemon completes a carried read that the
// host returns piecemeal, like any other.
func TestCarriedReadUnderShortReads(t *testing.T) {
	opt := defaultOpt()
	want := pattern(2*int(opt.PageSize)-100, 6) // the second page is short of full
	h := newFaultHarness(t, opt, faults.Config{Seed: 5, HostShortReadProb: 1}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/s", want)
	h.inj.SetEnabled(true)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/s", O_RDONLY)
		if err != nil {
			return err
		}
		if got := fs.openFilled.Load(); got != 2 {
			t.Errorf("open carried %d pages under short reads, want 2", got)
		}
		reads := h.server.Requests(rpc.OpReadPages)
		buf := make([]byte, 2*opt.PageSize)
		if n, err := fs.Read(b, fd, buf, 0); err != nil || n != len(want) || !bytes.Equal(buf[:n], want) {
			t.Errorf("gread n=%d err=%v, or the bytes are not the file's", n, err)
		}
		if got := h.server.Requests(rpc.OpReadPages) - reads; got != 0 {
			t.Errorf("the gread sent %d read requests, want none", got)
		}
		return fs.Close(b, fd)
	})
	if h.inj.Injected(faults.HostShortRead) < 2 {
		t.Fatalf("%d short reads injected; the reassembly loop never ran", h.inj.Injected(faults.HostShortRead))
	}
}
