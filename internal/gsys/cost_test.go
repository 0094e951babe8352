package gsys

import (
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

	dsts := make([][]byte, pages)
	for i := range dsts {
		dsts[i] = make([]byte, costPage)
	}
	_, done, err := r.cl.ReadAsync(c, fd, 0, dsts)
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
