package gsys

import (
	"runtime"
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// Host-cost guardrails of the syscall path (ISSUE 17): what a call may
// allocate, not what it costs in virtual time.

// TestBindAddsNoAllocation: core binds a lane view per syscall, so the view
// is a value and the transport's per-shard views exist from the start. A
// call on a freshly bound view of another shard allocates what the same call
// on the root does.
func TestBindAddsNoAllocation(t *testing.T) {
	host := hostfs.New(rigHost)
	cfg := rigRPC
	cfg.Shards, cfg.Workers = 4, 4
	srv := rpc.NewServer(cfg, wrapfs.New(host))
	root := NewClient(NewService(srv), srv.NewClient(0, pcie.New(rigBus, host.MemBus()).NewLink(0, nil, 0)), true)
	if err := host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode); err != nil {
		t.Fatal(err)
	}
	c := simtime.NewClock(0)
	fd, _, _, err := root.Open(c, "/f", hostfs.O_RDONLY, rwMode, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	lane := 0
	for root.RPC().ShardFor(lane) == root.RPC().Shard() {
		lane++
	}
	fsync := func(cl Client) {
		if err := cl.Fsync(c, fd); err != nil {
			t.Fatal(err)
		}
	}
	unbound := testing.AllocsPerRun(200, func() { fsync(*root) })
	bound := testing.AllocsPerRun(200, func() { fsync(root.Bind(lane)) })
	if bound != unbound {
		t.Fatalf("a call on a freshly bound view makes %.0f allocations, on the root %.0f", bound, unbound)
	}
	if got := root.Bind(lane).RPC().Shard(); got != root.RPC().ShardFor(lane) {
		t.Fatalf("Bind(%d) rides shard %d, ShardFor says %d", lane, got, root.RPC().ShardFor(lane))
	}
}

// TestWritePagesAllocatesNoStaging: the daemon writes a write's segments to
// the host file as they are, with no host-side copy of them, so a one-page
// WritePages allocates its frame, call and clock — a small fraction of the
// page.
func TestWritePagesAllocatesNoStaging(t *testing.T) {
	r := newRig(t, true)
	r.write(t, "/w", make([]byte, costPage))
	c := simtime.NewClock(0)
	fd := r.open(t, c, "/w", hostfs.O_RDWR)
	page := make([]byte, costPage)
	write := func() {
		if n, _, err := r.cl.WritePages(c, fd, 0, [][]byte{page}); err != nil || n != costPage {
			t.Fatalf("WritePages: n=%d err=%v", n, err)
		}
	}
	write()
	const calls = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	bound := int64(costPage / 8)
	if perCall := int64(after.TotalAlloc-before.TotalAlloc) / calls; perCall >= bound {
		t.Fatalf("a one-page WritePages allocates %d B, want < %d (the page is %d)", perCall, bound, costPage)
	}
}
