package rpc

import (
	"errors"
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/metrics"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// The transport moves handlers, not file ops: these tests drive Do and
// SubmitAsync with inline handlers (a counter where exactly-once matters, a
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

// twoStretch builds a request of two stretches: first of host work, a
// transfer of dma that the worker does not wait for, then second of host work.
// runs counts how often each stretch ran.
func twoStretch(first, dma, second simtime.Duration, runs *[2]int) Request {
	return Request{
		Handle: func(cclk *simtime.Clock) (simtime.Time, error) {
			runs[0]++
			cclk.Advance(first)
			return cclk.Now().Add(dma), nil
		},
		Resume: func(cclk *simtime.Clock) (simtime.Time, error) {
			runs[1]++
			cclk.Advance(second)
			return 0, nil
		},
	}
}

// TestRequestOfTwoStretches: the block waits for both stretches and the
// transfer between them; the worker is booked for the dispatch and the two
// stretches only — the continuation pays no second dispatch — and serves
// another ring slot inside the transfer window.
func TestRequestOfTwoStretches(t *testing.T) {
	const first, dma, second = 3 * simtime.Microsecond, 100 * simtime.Microsecond, 7 * simtime.Microsecond
	srv, cl := harness(t)
	cfg := srv.cfg
	var runs [2]int

	c1 := simtime.NewClock(0)
	if err := cl.Submit(c1, OpWritePages, twoStretch(first, dma, second, &runs)); err != nil {
		t.Fatal(err)
	}
	if runs != [2]int{1, 1} {
		t.Fatalf("stretches ran %v times, want once each", runs)
	}
	dispatched := cfg.PollInterval + cfg.HandleCost
	if got, want := simtime.Duration(c1.Now()), dispatched+first+dma+second+cfg.ReturnLatency; got != want {
		t.Errorf("block observed the response after %v, want dispatch + both stretches + the transfer + return = %v", got, want)
	}
	if got, want := srv.DaemonBusy(), cfg.HandleCost+first+second; got != want {
		t.Errorf("worker busy %v, want dispatch + both stretches = %v", got, want)
	}

	// A request sent at the same instant is dispatched right behind the first
	// stretch, inside the transfer window.
	const short = 5 * simtime.Microsecond
	c2 := simtime.NewClock(0)
	if err := cl.Do(c2, OpReadPages, busy(short)); err != nil {
		t.Fatal(err)
	}
	if got, want := simtime.Duration(c2.Now()), dispatched+first+cfg.HandleCost+short+cfg.ReturnLatency; got != want {
		t.Errorf("second request observed after %v, want %v: the worker is free across the transfer", got, want)
	}

	// The continuation takes the worker's first free instant at or after the
	// transfer's completion: a third request whose transfer lands while the
	// worker is busy resumes when the worker frees up.
	srv.ResetTime()
	c3, c4 := simtime.NewClock(0), simtime.NewClock(0)
	if err := cl.Do(c3, OpReadPages, busy(dma)); err != nil { // worker busy [dispatched, dispatched+dma)
		t.Fatal(err)
	}
	if err := cl.Submit(c4, OpWritePages, twoStretch(0, first, second, &runs)); err != nil {
		t.Fatal(err)
	}
	// c4's dispatch backfills nothing (the worker is booked from poll to the
	// end of c3's handler), so it follows c3's handler; its transfer then
	// lands on an idle worker.
	if got, want := simtime.Duration(c4.Now()), dispatched+dma+cfg.HandleCost+first+second+cfg.ReturnLatency; got != want {
		t.Errorf("queued two-stretch request observed after %v, want %v", got, want)
	}
}

// TestRequestResumeWaitsForTheWorker: a transfer that lands while the worker
// is inside another request's stretch resumes at that stretch's end.
func TestRequestResumeWaitsForTheWorker(t *testing.T) {
	const dma, second, long = 20 * simtime.Microsecond, 7 * simtime.Microsecond, 50 * simtime.Microsecond
	srv, cl := harness(t)
	cfg := srv.cfg
	var runs [2]int

	// The long request is sent second in virtual time but booked first here:
	// the calendar, not the call order, decides.
	cLong := simtime.NewClock(simtime.Time(cfg.HandleCost))
	if err := cl.Do(cLong, OpReadPages, busy(long)); err != nil {
		t.Fatal(err)
	}
	c := simtime.NewClock(0)
	if err := cl.Submit(c, OpWritePages, twoStretch(0, dma, second, &runs)); err != nil {
		t.Fatal(err)
	}
	longEnd := cfg.HandleCost + cfg.PollInterval + cfg.HandleCost + long
	if landed := cfg.PollInterval + cfg.HandleCost + dma; landed >= longEnd {
		t.Fatalf("test shape: transfer lands at %v, after the long stretch ends at %v", landed, longEnd)
	}
	if got, want := simtime.Duration(c.Now()), longEnd+second+cfg.ReturnLatency; got != want {
		t.Errorf("resumed request observed after %v, want the worker's first free instant + second stretch + return = %v", got, want)
	}
}

// TestRequestFailedHandleDoesNotResume: the second stretch belongs to a
// transfer the first one started; no transfer, no continuation.
func TestRequestFailedHandleDoesNotResume(t *testing.T) {
	_, cl := harness(t)
	resumed := false
	failed := errors.New("no such descriptor")
	err := cl.Submit(simtime.NewClock(0), OpWritePages, Request{
		Handle: func(*simtime.Clock) (simtime.Time, error) { return 0, failed },
		Resume: func(*simtime.Clock) (simtime.Time, error) { resumed = true; return 0, nil },
	})
	if !errors.Is(err, failed) || resumed {
		t.Fatalf("err=%v resumed=%v, want the first stretch's error and no second stretch", err, resumed)
	}
}

// TestRequestAsyncTwoStretches: a detached two-stretch request completes at
// the end of its second stretch — which is the landing time it reports, not
// what the second stretch returned — and books the worker the same way.
func TestRequestAsyncTwoStretches(t *testing.T) {
	const first, dma, second = 3 * simtime.Microsecond, 100 * simtime.Microsecond, 7 * simtime.Microsecond
	srv, cl := harness(t)
	cfg := srv.cfg
	var runs [2]int
	c := simtime.NewClock(0)
	landed, err := cl.SubmitAsync(c, OpWritePages, twoStretch(first, dma, second, &runs))
	if err != nil || c.Now() != 0 {
		t.Fatalf("err=%v, issuing clock at %v (want untouched)", err, c.Now())
	}
	end := simtime.Time(cfg.PollInterval + cfg.HandleCost + first + dma + second)
	if landed != end {
		t.Errorf("detached request reported landing at %v, want the end of its second stretch = %v", landed, end)
	}
	if got, want := srv.DaemonBusy(), cfg.HandleCost+first+second; got != want {
		t.Errorf("worker busy %v, want dispatch + both stretches = %v", got, want)
	}
	// Its host work ends with the second stretch: a request the worker
	// notices at that instant is dispatched at once.
	probe := simtime.NewClock(end - simtime.Time(cfg.PollInterval))
	if err := cl.Do(probe, OpStat, nop); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.Now(), end.Add(cfg.HandleCost+cfg.ReturnLatency); got != want {
		t.Errorf("request arriving at the second stretch's end observed at %v, want %v", got, want)
	}
}

// TestDaemonOverlapCountsDoubleBooking books the daemon worker twice: a
// request sent later in virtual time is served first, and a virtually
// earlier one then backfills its dispatch into the gap ahead of it, which
// fits the dispatch but not the host work that follows. DaemonBusy counts
// the calendar once; DaemonOverlap and its metric family count the rest.
func TestDaemonOverlapCountsDoubleBooking(t *testing.T) {
	const late, shortWork, longWork = 100 * simtime.Microsecond, 50 * simtime.Microsecond, 150 * simtime.Microsecond
	srv, cl := harness(t)
	reg := metrics.New()
	srv.SetMetrics(reg)
	cfg := srv.cfg

	if err := cl.Do(simtime.NewClock(simtime.Time(late)), OpReadPages, busy(shortWork)); err != nil {
		t.Fatal(err)
	}
	if srv.DaemonOverlap() != 0 {
		t.Fatalf("one request overlaps by %v", srv.DaemonOverlap())
	}
	if err := cl.Do(simtime.NewClock(0), OpReadPages, busy(longWork)); err != nil {
		t.Fatal(err)
	}
	// The early request's work runs from the end of its dispatch through
	// the late request's whole booking.
	earlyWorkEnd := cfg.PollInterval + cfg.HandleCost + longWork
	lateStart := late + cfg.PollInterval
	want := earlyWorkEnd - lateStart
	if got := srv.DaemonOverlap(); got != want {
		t.Fatalf("overlap %v, want %v", got, want)
	}
	if got, booked := srv.DaemonBusy(), 2*cfg.HandleCost+shortWork+longWork; got != booked-want {
		t.Fatalf("busy %v, want the bookings %v less the overlap %v", got, booked, want)
	}
	var family int64 = -1
	for _, s := range reg.Snapshot() {
		if s.Name == "gpufs_rpc_daemon_overlap_ns_total" {
			family = s.Value
		}
	}
	if family != int64(want) {
		t.Fatalf("gpufs_rpc_daemon_overlap_ns_total reads %d, want %d", family, int64(want))
	}
}
