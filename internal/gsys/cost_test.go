package gsys

import (
	"bytes"
	"slices"
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// Golden cost tests for the syscall path: what one call costs in virtual
// time on an idle machine, with every expected value derived from the
// rig's rpc, pcie and hostfs parameters. A change to where a layer charges
// its time fails here by layer, before it moves an end-to-end number.

// ringCycle is one request's fixed transport cost: the daemon's poll
// delay, its dispatch, and the response's trip back to the spinning block.
func ringCycle() simtime.Duration {
	return rigRPC.PollInterval + rigRPC.HandleCost + rigRPC.ReturnLatency
}

// warmPread is the host cost of reading n page-cache-resident bytes: the
// syscall plus one pass over the host memory bus.
func warmPread(n int64) simtime.Duration {
	return rigHost.SyscallOverhead + simtime.TransferTime(n, rigHost.MemBandwidth)
}

// dma is the link cost of one n-byte transfer from pinned host memory.
func dma(n int64) simtime.Duration {
	return rigBus.DMALatency + simtime.TransferTime(n, rigBus.Bandwidth)
}

// stagingPass is what a copying read pays on top of a zero-copy one: the
// staged bytes cross the host memory bus once more on their way to the
// DMA engine.
func stagingPass(n int64) simtime.Duration {
	return simtime.TransferTime(n, rigBus.HostMemBandwidth)
}

const costPage = 256 << 10

// costFile stages a warm file of the given number of pages and opens it,
// returning the descriptor and a block clock positioned after the open.
// The block starts well after the staging write's booking of the host
// memory bus at t=0, so the measured call finds every resource idle.
func costFile(t *testing.T, r *rig, pages int) (int64, *simtime.Clock) {
	t.Helper()
	r.write(t, "/f", make([]byte, pages*costPage))
	c := simtime.NewClock(simtime.Time(simtime.Second))
	return r.open(t, c, "/f", hostfs.O_RDONLY), c
}

func TestCostEmptyRoundTrip(t *testing.T) {
	r := newRig(t, false)
	c := simtime.NewClock(0)
	err := r.cl.RPC().Do(c, rpc.OpStat, func(*simtime.Clock) (simtime.Time, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := simtime.Duration(c.Now()), ringCycle(); got != want {
		t.Fatalf("empty round trip cost %v, want poll+handle+return = %v", got, want)
	}
}

func TestCostSinglePageStrongRead(t *testing.T) {
	cost := func(zeroCopy bool) simtime.Duration {
		r := newRig(t, zeroCopy)
		fd, c := costFile(t, r, 1)
		start := c.Now()
		ns, err := r.cl.Read(c, fd, 0, [][]byte{make([]byte, costPage)})
		if err != nil || ns[0] != costPage {
			t.Fatalf("read: ns=%v err=%v", ns, err)
		}
		return c.Now().Sub(start)
	}
	zc, copying := cost(true), cost(false)

	if want := ringCycle() + warmPread(costPage) + dma(costPage); zc != want {
		t.Errorf("zero-copy read cost %v, want ring cycle + warm pread + DMA = %v", zc, want)
	}
	if got, want := copying-zc, stagingPass(costPage); got != want {
		t.Errorf("copying read costs %v more than zero-copy, want exactly the staging pass %v", got, want)
	}
}

func TestCostVecReadIsOneCycle(t *testing.T) {
	const pages = 4
	r := newRig(t, true)
	fd, c := costFile(t, r, pages)
	start, reads := c.Now(), r.srv.Requests(rpc.OpReadPages)

	_, done, err := r.cl.ReadAsync(c, fd, 0, pageSegments(pages))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.srv.Requests(rpc.OpReadPages) - reads; got != 1 {
		t.Fatalf("4-page vec read was %d ring transactions, want 1", got)
	}
	// One poll and one dispatch for the whole extent (a relaxed call's
	// completion is its DMA landing; nobody spins on a response slot), one
	// pread, and one DMA carrying a scatter descriptor per extra page.
	total := int64(pages * costPage)
	scatter := rigBus.DMALatency / 8 * (pages - 1)
	want := rigRPC.PollInterval + rigRPC.HandleCost + warmPread(total) + scatter + dma(total)
	if got := done.Sub(start); got != want {
		t.Fatalf("4-page vec read completes after %v, want one cycle = %v", got, want)
	}
}

// TestCostVecReadShortFile: end of file leaves the trailing segments of a
// vectored read empty, and the DMA engine walks no descriptor for a segment
// that receives nothing. A read that end of file leaves wholly empty, of one
// segment or several, still pays its one transaction: the syscall and one
// DMA setup.
func TestCostVecReadShortFile(t *testing.T) {
	const size = costPage + costPage/2
	scatter := rigBus.DMALatency / 8
	for _, tc := range []struct {
		name string
		off  int64
		segs int
		ns   []int
		want simtime.Duration
	}{
		{"two of four filled", 0, 4, []int{costPage, costPage / 2, 0, 0}, warmPread(size) + scatter + dma(size)},
		{"one at EOF", size, 1, []int{0}, rigHost.SyscallOverhead + dma(0)},
		{"four at EOF", size, 4, []int{0, 0, 0, 0}, rigHost.SyscallOverhead + dma(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, true)
			r.write(t, "/f", make([]byte, size))
			c := simtime.NewClock(simtime.Time(simtime.Second))
			fd := r.open(t, c, "/f", hostfs.O_RDONLY)
			start := c.Now()

			ns, done, err := r.cl.ReadAsync(c, fd, tc.off, pageSegments(tc.segs))
			if err != nil || !slices.Equal(ns, tc.ns) {
				t.Fatalf("read: ns=%v err=%v, want %v", ns, err, tc.ns)
			}
			want := rigRPC.PollInterval + rigRPC.HandleCost + tc.want
			if got := done.Sub(start); got != want {
				t.Fatalf("read completes after %v, want %v", got, want)
			}
		})
	}
}

// pageSegments makes n page-sized destination segments.
func pageSegments(n int) [][]byte {
	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, costPage)
	}
	return dsts
}

// TestCostCompoundOpen: an open that is offered room for the whole file
// carries it — one ring transaction whose host work is the open, the stat and
// one pread, and whose DMA the block waits for as it would for a read's. A
// file the offer does not hold, an empty file and an open that offers nothing
// cost the open and the stat alone, unless the open asks for the head: then a
// file the offer does not hold costs what one the size of the offer does.
func TestCostCompoundOpen(t *testing.T) {
	const size = costPage + costPage/2
	plain := ringCycle() + 2*rigHost.SyscallOverhead
	for _, tc := range []struct {
		name  string
		size  int
		offer int
		head  bool
		want  simtime.Duration
		ns    []int
	}{
		{"fits", size, 3, false, plain + warmPread(size) + rigBus.DMALatency/8 + dma(size), []int{costPage, costPage / 2}},
		{"one page", costPage, 1, false, plain + warmPread(costPage) + dma(costPage), []int{costPage}},
		{"too large", size, 1, false, plain, nil},
		{"empty", 0, 2, false, plain, nil},
		{"nothing offered", size, 0, false, plain, nil},
		{"head", size, 1, true, plain + warmPread(costPage) + dma(costPage), []int{costPage}},
		{"head fits", size, 3, true, plain + warmPread(size) + rigBus.DMALatency/8 + dma(size), []int{costPage, costPage / 2}},
		{"head of empty", 0, 2, true, plain, nil},
		{"head offered nothing", size, 0, true, plain, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, true)
			data := make([]byte, tc.size)
			for i := range data {
				data[i] = byte(i/7 + 1)
			}
			r.write(t, "/f", data)
			c := simtime.NewClock(simtime.Time(simtime.Second))
			start, requests := c.Now(), r.srv.TotalRequests()
			_, _, dmas := r.link.Stats()

			dsts := pageSegments(tc.offer)
			_, info, ns, err := r.cl.Open(c, "/f", hostfs.O_RDONLY, rwMode, dsts, tc.head)
			if err != nil || info.Size != int64(tc.size) {
				t.Fatalf("open: size=%d err=%v", info.Size, err)
			}
			if !slices.Equal(ns, tc.ns) {
				t.Fatalf("open carried %v, want %v", ns, tc.ns)
			}
			var got []byte
			for i, n := range ns {
				got = append(got, dsts[i][:n]...)
			}
			if tc.ns != nil && !bytes.Equal(got, data[:len(got)]) {
				t.Error("the carried bytes are not the file's")
			}
			if got := r.srv.TotalRequests() - requests; got != 1 {
				t.Errorf("the open was %d ring transactions, want 1", got)
			}
			if _, _, now := r.link.Stats(); now-dmas != int64(min(len(tc.ns), 1)) {
				t.Errorf("the open started %d DMAs, want %d", now-dmas, min(len(tc.ns), 1))
			}
			if got := c.Now().Sub(start); got != tc.want {
				t.Errorf("open cost %v, want %v", got, tc.want)
			}
		})
	}
}

// writeFile stages a warm one-page file and opens it for writing, like
// costFile; it also returns the generation the file was opened at.
func writeFile(t *testing.T, r *rig) (fd, gen int64, c *simtime.Clock) {
	t.Helper()
	r.write(t, "/f", make([]byte, costPage))
	c = simtime.NewClock(simtime.Time(simtime.Second))
	fd, info, _, err := r.cl.Open(c, "/f", hostfs.O_RDWR, rwMode, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return fd, info.Generation, c
}

// d2h is the link cost of one staged n-byte transfer out of device memory:
// the landing pass through host DRAM, then the bus.
func d2h(n int64) simtime.Duration { return stagingPass(n) + dma(n) }

// TestCostWritePages: a write is one ring transaction of two stretches. The
// block waits for the dispatch, the D2H transfer, the pwrite (which costs what
// a warm pread of as many bytes does) and the response; the worker is busy
// for the dispatch and the pwrite and free while the transfer is in flight.
func TestCostWritePages(t *testing.T) {
	r := newRig(t, false)
	fd, opened, c := writeFile(t, r)
	start, requests, busy := c.Now(), r.srv.TotalRequests(), r.srv.DaemonBusy()

	n, gen, err := r.cl.WritePages(c, fd, 0, [][]byte{make([]byte, costPage)})
	if err != nil || n != costPage {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if gen != opened+1 {
		t.Errorf("write's reply carries generation %d, want the one it produced, %d", gen, opened+1)
	}
	if got := r.srv.TotalRequests() - requests; got != 1 {
		t.Errorf("one write was %d ring transactions, want 1", got)
	}
	if got, want := c.Now().Sub(start), ringCycle()+d2h(costPage)+warmPread(costPage); got != want {
		t.Errorf("write cost the block %v, want ring cycle + D2H DMA + pwrite = %v", got, want)
	}
	if got, want := r.srv.DaemonBusy()-busy, rigRPC.HandleCost+warmPread(costPage); got != want {
		t.Errorf("write kept the worker busy %v, want dispatch + pwrite = %v (it does not sit through the DMA)", got, want)
	}
}

// TestCostWritePagesGather: a write gathered from k segments is still one ring
// transaction, one D2H transfer and one pwrite of the k segments' bytes, in
// order; the transfer pays the gather surcharge, an eighth of the DMA setup
// per segment past the first, and the worker is busy for the dispatch and the
// pwrite alone.
func TestCostWritePagesGather(t *testing.T) {
	const k = 4
	r := newRig(t, false)
	r.write(t, "/f", make([]byte, k*costPage))
	c := simtime.NewClock(simtime.Time(simtime.Second))
	fd := r.open(t, c, "/f", hostfs.O_RDWR)
	opened, _ := r.host.Stat("/f")
	want := make([]byte, k*costPage)
	for i := range want {
		want[i] = byte(i*13 + 1)
	}
	srcs := make([][]byte, k)
	for i := range srcs {
		srcs[i] = want[i*costPage : (i+1)*costPage]
	}
	start, requests, busy := c.Now(), r.srv.TotalRequests(), r.srv.DaemonBusy()

	n, gen, err := r.cl.WritePages(c, fd, 0, srcs)
	if err != nil || n != k*costPage {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if gen != opened.Generation+1 {
		t.Errorf("a gathered write's reply carries generation %d, want one write's, %d", gen, opened.Generation+1)
	}
	if got := r.srv.TotalRequests() - requests; got != 1 {
		t.Errorf("a %d-segment write was %d ring transactions, want 1", k, got)
	}
	total := int64(k * costPage)
	gather := rigBus.DMALatency / 8 * (k - 1)
	if got, want := c.Now().Sub(start), ringCycle()+d2h(total)+gather+warmPread(total); got != want {
		t.Errorf("%d-segment write cost the block %v, want ring cycle + one D2H DMA + gather surcharge + one pwrite = %v", k, got, want)
	}
	if got, want := r.srv.DaemonBusy()-busy, rigRPC.HandleCost+warmPread(total); got != want {
		t.Errorf("%d-segment write kept the worker busy %v, want dispatch + one pwrite = %v", k, got, want)
	}
	got, err := r.host.ReadFile(simtime.NewClock(0), "/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("host file is not the segments in order (err=%v)", err)
	}
}

// TestCostWritesOverlapOnOneRing: two blocks write through the same ring at
// the same instant. The worker dispatches the second write while the first's
// transfer is in flight, so the second waits for the host memory bus (both
// transfers stage through it) and for the first's pwrite, never for the
// first's DMA.
func TestCostWritesOverlapOnOneRing(t *testing.T) {
	r := newRig(t, false)
	fd, _, c1 := writeFile(t, r)
	c2 := simtime.NewClock(c1.Now())
	start := c1.Now()
	for _, c := range []*simtime.Clock{c1, c2} {
		if _, _, err := r.cl.WritePages(c, fd, 0, [][]byte{make([]byte, costPage)}); err != nil {
			t.Fatal(err)
		}
	}
	stage, pwrite := stagingPass(costPage), warmPread(costPage)
	dispatched1 := start.Add(rigRPC.PollInterval + rigRPC.HandleCost)
	landed1 := dispatched1.Add(d2h(costPage))
	if want := landed1.Add(pwrite + rigRPC.ReturnLatency); c1.Now() != want {
		t.Fatalf("first write observed at %v, want %v", c1.Now(), want)
	}
	// The second is dispatched right behind the first; its staging pass
	// queues behind the first's on the memory bus, its bus transfer takes
	// another DMA channel, and its pwrite takes the worker's first free
	// instant once it has landed.
	dispatched2 := dispatched1.Add(rigRPC.HandleCost)
	landed2 := max(dispatched2, dispatched1.Add(stage)).Add(stage + dma(costPage))
	resumed2 := max(landed2, landed1.Add(pwrite))
	if want := resumed2.Add(pwrite + rigRPC.ReturnLatency); c2.Now() != want {
		held := landed1.Add(pwrite + rigRPC.HandleCost + d2h(costPage) + pwrite + rigRPC.ReturnLatency)
		t.Fatalf("second write observed at %v, want %v (a worker held through the first's DMA gives %v)", c2.Now(), want, held)
	}
}
