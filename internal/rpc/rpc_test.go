package rpc

import (
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// The transport moves handlers, not file ops: these tests drive Do and
// DoAsync with inline handlers (a counter where exactly-once matters, a
// returned error where retry classification does). Tests that need a host
// file live in internal/gsys, over the syscall handlers that run in
// production.

// shardedHarness wires a host fs, bus and daemon with the given ring-shard
// and daemon-worker counts (0 selects the single-ring, single-worker
// prototype shape).
func shardedHarness(t *testing.T, shards, workers int) (*Server, *Client) {
	t.Helper()
	host := hostfs.New(hostfs.Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      64 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	})
	layer := wrapfs.New(host)
	bus := pcie.New(pcie.Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}, host.MemBus())
	srv := NewServer(Config{
		PollInterval:  10 * simtime.Microsecond,
		HandleCost:    12 * simtime.Microsecond,
		ReturnLatency: 2 * simtime.Microsecond,
		Shards:        shards,
		Workers:       workers,
	}, layer)
	return srv, srv.NewClient(0, bus.NewLink(0, nil, 0))
}

func harness(t *testing.T) (*Server, *Client) {
	t.Helper()
	return shardedHarness(t, 0, 0)
}

// nop is a handler that does no host work and starts no DMA.
func nop(*simtime.Clock) (simtime.Time, error) { return 0, nil }

// busy returns a handler that occupies its daemon worker for d.
func busy(d simtime.Duration) Handler {
	return func(cclk *simtime.Clock) (simtime.Time, error) {
		cclk.Advance(d)
		return 0, nil
	}
}

func TestDaemonSerializesRequests(t *testing.T) {
	srv, cl := harness(t)

	// Two blocks issue requests at t=0; the single-threaded daemon must
	// order them.
	c1, c2 := simtime.NewClock(0), simtime.NewClock(0)
	if err := cl.Do(c1, OpOpen, nop); err != nil {
		t.Fatal(err)
	}
	if err := cl.Do(c2, OpOpen, nop); err != nil {
		t.Fatal(err)
	}
	if c1.Now() == 0 {
		t.Fatalf("RPCs should cost virtual time")
	}
	if c1.Now() == c2.Now() {
		t.Fatalf("concurrent requests completed at the same instant: daemon not serialized")
	}
	if srv.DaemonBusy() == 0 {
		t.Fatalf("daemon busy time not accounted")
	}
	if srv.Requests(OpOpen) != 2 || srv.TotalRequests() != 2 {
		t.Fatalf("request counts wrong: open=%d total=%d", srv.Requests(OpOpen), srv.TotalRequests())
	}
}

func TestQueueDepthTracking(t *testing.T) {
	_, cl := harness(t)
	c := simtime.NewClock(0)
	if err := cl.Do(c, OpOpen, nop); err != nil {
		t.Fatal(err)
	}
	if err := cl.Do(c, OpClose, nop); err != nil {
		t.Fatal(err)
	}
	if cl.MaxQueueDepth() < 1 {
		t.Fatalf("queue depth never recorded")
	}
	if cl.GPUID() != 0 {
		t.Fatalf("gpu id")
	}
}

func TestOpString(t *testing.T) {
	if OpOpen.String() != "open" || OpReadPages.String() != "read" {
		t.Fatalf("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatalf("unknown op must render")
	}
}
