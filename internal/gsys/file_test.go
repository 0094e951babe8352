package gsys

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// The file syscalls, driven through Client against the handlers that run
// in production. There is one read syscall; the tests that read take the
// DMA charge (staged or pinned) and the destination vector's segment count
// as inputs, see readVariants.

// The rig's timing parameters, named so the golden cost tests can compute
// expected values from them.
var (
	rigHost = hostfs.Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      64 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	}
	rigBus = pcie.Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}
	rigRPC = rpc.Config{
		PollInterval:  10 * simtime.Microsecond,
		HandleCost:    12 * simtime.Microsecond,
		ReturnLatency: 2 * simtime.Microsecond,
	}
)

// rig is a one-GPU machine up to the syscall client: host fs, consistency
// layer, bus, daemon, syscall service.
type rig struct {
	host *hostfs.FS
	srv  *rpc.Server
	svc  *Service
	link *pcie.Link
	cl   *Client
	inj  *faults.Injector
}

func newRig(t *testing.T, zeroCopy bool) *rig {
	t.Helper()
	host := hostfs.New(rigHost)
	bus := pcie.New(rigBus, host.MemBus())
	srv := rpc.NewServer(rigRPC, wrapfs.New(host))
	svc := NewService(srv, zeroCopy)
	link := bus.NewLink(0, nil, 0)
	return &rig{host: host, srv: srv, svc: svc, link: link, cl: NewClient(svc, srv.NewClient(0, link))}
}

// newFaultyRig is newRig with an injector installed on the daemon and the
// host fs.
func newFaultyRig(t *testing.T, zeroCopy bool, cfg faults.Config) *rig {
	t.Helper()
	r := newRig(t, zeroCopy)
	r.inj = faults.New(cfg)
	r.srv.SetFaultInjector(r.inj)
	r.host.SetFaultInjector(r.inj)
	return r
}

// readVariants runs fn under both DMA charges and with a one- and a
// four-segment destination vector: the one handler preads straight into a
// single segment and scatters several from a pooled buffer, and every
// property of a read must hold either way.
func readVariants(t *testing.T, fn func(t *testing.T, zeroCopy bool, segs int)) {
	t.Helper()
	for _, zeroCopy := range []bool{false, true} {
		for _, segs := range []int{1, 4} {
			t.Run(fmt.Sprintf("zerocopy=%v/segs=%d", zeroCopy, segs), func(t *testing.T) { fn(t, zeroCopy, segs) })
		}
	}
}

// segments cuts buf into segs equal contiguous destination segments (the
// last takes the remainder), so a test reads into one buffer through any
// vector shape.
func segments(buf []byte, segs int) [][]byte {
	out := make([][]byte, segs)
	each := len(buf) / segs
	for i := range out {
		out[i] = buf[i*each : (i+1)*each : (i+1)*each]
	}
	out[segs-1] = buf[(segs-1)*each:]
	return out
}

// sum totals per-segment byte counts.
func sum(ns []int) int {
	n := 0
	for _, v := range ns {
		n += v
	}
	return n
}

const rwMode = hostfs.ModeRead | hostfs.ModeWrite

func (r *rig) write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := r.host.WriteFile(simtime.NewClock(0), path, data, rwMode); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) open(t *testing.T, c *simtime.Clock, path string, flags int) int64 {
	t.Helper()
	fd, _, _, err := r.cl.Open(c, path, flags, rwMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

func TestOpenReadWriteRoundTrip(t *testing.T) {
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		r := newRig(t, zeroCopy)
		cl, srv := r.cl, r.srv
		c := simtime.NewClock(0)
		want := []byte("through the ring and back")
		r.write(t, "/f", want)

		fd, info, _, err := cl.Open(c, "/f", hostfs.O_RDWR, rwMode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size != int64(len(want)) {
			t.Fatalf("size %d", info.Size)
		}

		dst := make([]byte, len(want))
		ns, err := cl.Read(c, fd, 0, segments(dst, segs))
		if err != nil || len(ns) != segs || sum(ns) != len(want) {
			t.Fatalf("read: ns=%v err=%v", ns, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("payload mismatch")
		}

		if _, _, err := cl.WritePages(c, fd, int64(len(want)), []byte("!")); err != nil {
			t.Fatal(err)
		}
		st, err := r.host.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != int64(len(want))+1 {
			t.Fatalf("after write, size %d", st.Size)
		}
		if err := cl.Close(c, fd); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(c, fd); err == nil {
			t.Fatalf("double close should fail")
		}
		if srv.Requests(rpc.OpOpen) != 1 || srv.Requests(rpc.OpReadPages) != 1 || srv.Requests(rpc.OpWritePages) != 1 {
			t.Fatalf("request counts wrong: %d %d %d",
				srv.Requests(rpc.OpOpen), srv.Requests(rpc.OpReadPages), srv.Requests(rpc.OpWritePages))
		}
		if c.Now() == 0 {
			t.Fatalf("syscalls should cost virtual time")
		}
		if got := cl.StrongCalls(); got != 5 {
			t.Fatalf("StrongCalls = %d, want 5", got)
		}
	})
}

func TestUnknownFd(t *testing.T) {
	r := newRig(t, false)
	c := simtime.NewClock(0)
	if _, err := r.cl.Read(c, 999, 0, [][]byte{make([]byte, 8)}); err == nil {
		t.Fatalf("unknown fd read must fail")
	}
	if err := r.cl.Fsync(c, 999); err == nil {
		t.Fatalf("unknown fd fsync must fail")
	}
}

func TestTruncateAndUnlink(t *testing.T) {
	r := newRig(t, false)
	c := simtime.NewClock(0)
	r.write(t, "/f", make([]byte, 100))

	fd := r.open(t, c, "/f", hostfs.O_RDWR)
	gen, err := r.cl.Truncate(c, fd, 10)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.host.Stat("/f")
	if st.Size != 10 {
		t.Fatalf("truncate: size %d", st.Size)
	}
	if gen != st.Generation {
		t.Fatalf("truncate replied generation %d, a stat right after reads %d", gen, st.Generation)
	}
	r.cl.Close(c, fd)
	if err := r.cl.Unlink(c, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.host.Stat("/f"); err == nil {
		t.Fatalf("file survived unlink")
	}
}

func TestValidatePiggybacksConsistency(t *testing.T) {
	r := newRig(t, false)
	cl, srv := r.cl, r.srv
	c := simtime.NewClock(0)
	r.write(t, "/f", []byte("x"))
	info, _ := r.host.Stat("/f")

	cl.RecordCached(info.Ino, info.Generation)
	if !cl.Validate(c, info.Ino, info.Generation) {
		t.Fatalf("validate failed for fresh record")
	}
	if srv.Requests(rpc.OpValidate) != 1 {
		t.Fatalf("validate should be a daemon request")
	}
	// PeekValid costs no daemon request, only the read over the bus.
	before, at := srv.TotalRequests(), c.Now()
	if !cl.PeekValid(c, info.Ino, info.Generation) {
		t.Fatalf("peek failed")
	}
	if srv.TotalRequests() != before {
		t.Fatalf("peek must not go through the daemon")
	}
	if c.Now() == at {
		t.Fatalf("peek cost no virtual time")
	}
	cl.Forget(info.Ino)
	if cl.PeekValid(c, info.Ino, info.Generation) {
		t.Fatalf("peek after forget")
	}
}

func TestWriterRegistration(t *testing.T) {
	r := newRig(t, false)
	r.write(t, "/f", []byte("x"))
	info, _ := r.host.Stat("/f")
	cl, cl2 := r.cl, NewClient(r.svc, r.srv.NewClient(1, r.link))

	if err := cl.BeginWrite(info.Ino, false); err != nil {
		t.Fatal(err)
	}
	if err := cl2.BeginWrite(info.Ino, false); err == nil {
		t.Fatalf("second exclusive writer allowed")
	}
	cl.EndWrite(info.Ino)
	if err := cl2.BeginWrite(info.Ino, false); err != nil {
		t.Fatal(err)
	}
	cl2.EndWrite(info.Ino)
}

func TestReadAsync(t *testing.T) {
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		r := newRig(t, zeroCopy)
		want := []byte("prefetch me")
		r.write(t, "/f", want)

		c := simtime.NewClock(0)
		fd := r.open(t, c, "/f", hostfs.O_RDONLY)
		before := c.Now()
		dst := make([]byte, len(want))
		ns, done, err := r.cl.ReadAsync(c, fd, 0, segments(dst, segs))
		if err != nil || len(ns) != segs || sum(ns) != len(want) {
			t.Fatalf("async read: ns=%v err=%v", ns, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("payload")
		}
		if c.Now() != before {
			t.Fatalf("async read must not advance the caller's clock (moved %v)", c.Now()-before)
		}
		if done <= before {
			t.Fatalf("completion time %v not in the future of %v", done, before)
		}
		if _, _, err := r.cl.ReadAsync(c, 999, 0, segments(dst, segs)); err == nil {
			t.Fatalf("unknown fd must fail")
		}
		if got := r.cl.RelaxedCalls(); got != 2 {
			t.Fatalf("RelaxedCalls = %d, want 2", got)
		}
	})
}

// TestServerErrorPaths drives the daemon's error returns table-style:
// unknown descriptors across every fd-taking op, double close, and a
// truncation racing an in-flight read.
func TestServerErrorPaths(t *testing.T) {
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		t.Run("unknown fd", func(t *testing.T) {
			cl := newRig(t, zeroCopy).cl
			c := simtime.NewClock(0)
			cases := []struct {
				name string
				call func() error
			}{
				{"close", func() error { return cl.Close(c, 404) }},
				{"read", func() error { _, err := cl.Read(c, 404, 0, segments(make([]byte, 8), segs)); return err }},
				{"readAsync", func() error { _, _, err := cl.ReadAsync(c, 404, 0, segments(make([]byte, 8), segs)); return err }},
				{"write", func() error { _, _, err := cl.WritePages(c, 404, 0, []byte("x")); return err }},
				{"truncate", func() error { _, err := cl.Truncate(c, 404, 0); return err }},
				{"fsync", func() error { return cl.Fsync(c, 404) }},
			}
			for _, tc := range cases {
				err := tc.call()
				if err == nil {
					t.Errorf("%s on unknown fd succeeded", tc.name)
				} else if rpc.Retryable(err) || errors.Is(err, rpc.ErrTimeout) {
					t.Errorf("%s: unknown fd classified transient: %v", tc.name, err)
				}
			}
		})

		t.Run("double close", func(t *testing.T) {
			r := newRig(t, zeroCopy)
			c := simtime.NewClock(0)
			r.write(t, "/f", []byte("x"))
			fd := r.open(t, c, "/f", hostfs.O_RDONLY)
			if err := r.cl.Close(c, fd); err != nil {
				t.Fatal(err)
			}
			if err := r.cl.Close(c, fd); err == nil {
				t.Fatalf("second close of %d succeeded", fd)
			}
		})

		t.Run("truncate while read in flight", func(t *testing.T) {
			r := newRig(t, zeroCopy)
			want := bytes.Repeat([]byte("ab"), 4096)
			r.write(t, "/f", want)
			cr, ct := simtime.NewClock(0), simtime.NewClock(0)
			fd := r.open(t, cr, "/f", hostfs.O_RDWR)
			// Both requests enter the ring at the same instant; the
			// single-threaded daemon serializes them in either order. The
			// read must return a prefix of the original content (full or
			// truncated), never garbage, and never a protocol error.
			type res struct {
				n   int
				err error
			}
			readDone := make(chan res)
			dst := make([]byte, 8192)
			go func() {
				ns, err := r.cl.Read(cr, fd, 0, segments(dst, segs))
				readDone <- res{sum(ns), err}
			}()
			if _, err := r.cl.Truncate(ct, fd, 16); err != nil {
				t.Fatal(err)
			}
			got := <-readDone
			if got.err != nil {
				t.Fatalf("in-flight read failed: %v", got.err)
			}
			if got.n != 16 && got.n != 8192 {
				t.Fatalf("read observed a partial truncate: n=%d", got.n)
			}
			if !bytes.Equal(dst[:got.n], want[:got.n]) {
				t.Fatalf("read returned corrupt data")
			}
		})
	})
}

func TestShortReadsAreCompleted(t *testing.T) {
	// The daemon's read loop must assemble the full extent despite injected
	// short reads — some of the preads (0.7) or every one of them (1) — or
	// the fill engine would zero-fill mid-file data. Short reads are a host
	// artifact the read syscall hides, not a result the GPU ever sees.
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		for _, prob := range []float64{0.7, 1} {
			r := newFaultyRig(t, zeroCopy, faults.Config{Seed: 5, HostShortReadProb: prob})
			want := bytes.Repeat([]byte{0xA5, 0x5A, 0x33}, 3000)
			r.write(t, "/f", want)
			c := simtime.NewClock(0)

			fd := r.open(t, c, "/f", hostfs.O_RDONLY)
			for i := 0; i < 20; i++ {
				dst := make([]byte, len(want))
				ns, err := r.cl.Read(c, fd, 0, segments(dst, segs))
				if err != nil || sum(ns) != len(want) {
					t.Fatalf("prob %v read %d: ns=%v err=%v", prob, i, ns, err)
				}
				for j, d := range segments(dst, segs) {
					if ns[j] != len(d) {
						t.Fatalf("prob %v read %d: segment %d count = %d under short reads, want %d", prob, i, j, ns[j], len(d))
					}
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("short-read completion returned corrupt data")
				}
			}
			if r.inj.Injected(faults.HostShortRead) < 2 {
				t.Fatalf("only %d short reads injected; the reassembly loop never ran",
					r.inj.Injected(faults.HostShortRead))
			}
		}
	})
}

func TestHostEIOIsNotRetried(t *testing.T) {
	// A real I/O error from the host fs is a valid reply: it must come
	// back on the first attempt, not burn the retry budget.
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		r := newFaultyRig(t, zeroCopy, faults.Config{Seed: 4, HostReadEIOProb: 1.0})
		r.write(t, "/f", []byte("data"))
		c := simtime.NewClock(0)

		fd := r.open(t, c, "/f", hostfs.O_RDONLY)
		base := r.cl.RPC().Retries()
		ns, err := r.cl.Read(c, fd, 0, segments(make([]byte, 4), segs))
		if !errors.Is(err, hostfs.ErrIO) {
			t.Fatalf("read error = %v, want ErrIO", err)
		}
		if len(ns) != 0 {
			t.Fatalf("failed read reported counts %v", ns)
		}
		if r.cl.RPC().Retries() != base {
			t.Fatalf("EIO consumed retries")
		}
	})
}

// TestOpenSurvivesItsCarriedRead: the read an open carries is a convenience.
// When it fails the open still succeeds, with its descriptor and metadata and
// no counts — the caller reads the file itself and meets the error there — and
// under short reads it is completed like any other read.
func TestOpenSurvivesItsCarriedRead(t *testing.T) {
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		want := bytes.Repeat([]byte{0xC3, 0x3C, 0x0F}, 3000)

		r := newFaultyRig(t, zeroCopy, faults.Config{Seed: 4, HostReadEIOProb: 1.0})
		r.write(t, "/f", want)
		c := simtime.NewClock(0)
		fd, info, ns, err := r.cl.Open(c, "/f", hostfs.O_RDONLY, rwMode, segments(make([]byte, len(want)), segs))
		if err != nil || info.Size != int64(len(want)) {
			t.Fatalf("open under a failing carried read: size=%d err=%v", info.Size, err)
		}
		if ns != nil {
			t.Fatalf("failed carried read reported counts %v", ns)
		}
		if _, err := r.cl.Read(c, fd, 0, [][]byte{make([]byte, 4)}); !errors.Is(err, hostfs.ErrIO) {
			t.Fatalf("the descriptor's own read error = %v, want ErrIO", err)
		}

		r = newFaultyRig(t, zeroCopy, faults.Config{Seed: 5, HostShortReadProb: 1})
		r.write(t, "/f", want)
		dst := make([]byte, len(want))
		_, _, ns, err = r.cl.Open(simtime.NewClock(0), "/f", hostfs.O_RDONLY, rwMode, segments(dst, segs))
		if err != nil || sum(ns) != len(want) || !bytes.Equal(dst, want) {
			t.Fatalf("carried read under short reads: ns=%v err=%v", ns, err)
		}
		if r.inj.Injected(faults.HostShortRead) == 0 {
			t.Fatal("no short read injected; the reassembly loop never ran")
		}
	})
}

func TestDroppedResponsesApplySyscallsOnce(t *testing.T) {
	// Every response has a 40% chance of being lost. A retried syscall is
	// answered from the ring's dedup table, so the handler's side effects
	// land once — the host inode's generation counts every applied
	// mutation, so N logical writes must move it by exactly N — and the
	// reply the first execution filled (descriptor, byte count, the
	// generation the write produced) is what the caller sees after the
	// retry: it lives in the captured call, not in the dedup table.
	r := newFaultyRig(t, false, faults.Config{Seed: 2, RPCDropResponseProb: 0.4})
	r.write(t, "/f", nil)
	before, _ := r.host.Stat("/f")
	c := simtime.NewClock(0)

	const writes = 40
	fds := make(map[int64]bool)
	for i := 0; i < writes; i++ {
		fd := r.open(t, c, "/f", hostfs.O_RDWR)
		if fd < 3 || fds[fd] {
			t.Fatalf("open %d returned descriptor %d (seen: %v)", i, fd, fds[fd])
		}
		fds[fd] = true
		n, gen, err := r.cl.WritePages(c, fd, int64(i), []byte{byte(i)})
		if err != nil || n != 1 {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		if want := before.Generation + int64(i) + 1; gen != want {
			t.Fatalf("write %d replied generation %d, want %d", i, gen, want)
		}
		if err := r.cl.Close(c, fd); err != nil {
			t.Fatalf("close %d: %v (a re-applied close reports an unknown descriptor)", i, err)
		}
	}
	after, _ := r.host.Stat("/f")
	if got := after.Generation - before.Generation; got != writes {
		t.Fatalf("%d writes moved generation by %d: dedup broken", writes, got)
	}
	if r.cl.RPC().Timeouts() == 0 {
		t.Fatalf("0.4 drop rate over %d writes caused no timeouts", writes)
	}
}

func TestValidateConservativeUnderTimeout(t *testing.T) {
	r := newFaultyRig(t, false, faults.Config{Seed: 6, RPCDropResponseProb: 1.0})
	r.write(t, "/f", []byte("x"))
	info, _ := r.host.Stat("/f")
	r.cl.RecordCached(info.Ino, info.Generation)
	c := simtime.NewClock(0)
	if r.cl.Validate(c, info.Ino, info.Generation) {
		t.Fatalf("validate with all responses lost reported valid")
	}
}

// vecFile stages /vec with size bytes of a deterministic pattern and
// returns its content and an open descriptor.
func vecFile(t *testing.T, r *rig, size int) (int64, []byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	r.write(t, "/vec", data)
	return r.open(t, simtime.NewClock(0), "/vec", hostfs.O_RDONLY), data
}

// sentinel is the fill of a destination buffer before a read, so an
// untouched byte is distinguishable from a copied zero.
const sentinel = 0xEE

// TestReadShortAtEOF pins the per-segment count contract when the vector
// runs past end of file: full counts for covered segments, a short count
// for the segment straddling EOF, zero for segments wholly past it — and
// the bytes of every untouched tail still hold the caller's sentinel.
func TestReadShortAtEOF(t *testing.T) {
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		r := newRig(t, zeroCopy)
		const page = 1024
		fd, data := vecFile(t, r, 2*page+512) // 2.5 pages

		buf := bytes.Repeat([]byte{sentinel}, 4*page)
		dsts := segments(buf, segs)
		c := simtime.NewClock(0)
		ns, done, err := r.cl.ReadAsync(c, fd, 0, dsts)
		if err != nil {
			t.Fatal(err)
		}
		if done <= 0 {
			t.Fatalf("completion time %v not in the future", done)
		}
		if len(ns) != segs {
			t.Fatalf("%d counts for %d segments", len(ns), segs)
		}
		left := len(data)
		for i, d := range dsts {
			want := len(d)
			if want > left {
				want = left
			}
			left -= want
			if ns[i] != want {
				t.Fatalf("segment %d count = %d, want %d (ns=%v)", i, ns[i], want, ns)
			}
		}
		if !bytes.Equal(buf[:len(data)], data) {
			t.Fatalf("bytes differ from file content")
		}
		for j := len(data); j < len(buf); j++ {
			if buf[j] != sentinel {
				t.Fatalf("byte %d overwritten past the short count", j)
			}
		}
		// Speculative reads must not advance the issuing block's clock.
		if c.Now() != 0 {
			t.Fatalf("async read advanced the block clock to %v", c.Now())
		}
	})
}

// TestReadMidVectorEIO is the partial-failure oracle: short reads at
// probability 1 force the daemon's reassembly loop to issue several preads
// per read, and a 30% EIO rate makes some of those CONTINUATION preads fail
// — an error striking after part of the extent has already been read. The
// contract under any such fault: either the call succeeds with exact
// per-segment counts and bytes, or it returns the error with NO counts —
// the destination is then undefined and the caller publishes nothing. No
// seed may report counts for a partially filled vector.
func TestReadMidVectorEIO(t *testing.T) {
	const (
		page  = 1024
		pages = 4
		seeds = 120
	)
	readVariants(t, func(t *testing.T, zeroCopy bool, segs int) {
		var sawClean, sawFirst, sawMid int
		for seed := int64(1); seed <= seeds; seed++ {
			r := newFaultyRig(t, zeroCopy, faults.Config{
				Seed:              seed,
				HostShortReadProb: 1,
				HostReadEIOProb:   0.3,
			})
			fd, data := vecFile(t, r, pages*page)

			buf := bytes.Repeat([]byte{sentinel}, pages*page)
			ns, _, err := r.cl.ReadAsync(simtime.NewClock(0), fd, 0, segments(buf, segs))
			if err == nil {
				sawClean++
				if len(ns) != segs || sum(ns) != len(data) {
					t.Fatalf("seed %d: clean run returned counts %v", seed, ns)
				}
				if !bytes.Equal(buf, data) {
					t.Fatalf("seed %d: clean run bytes differ", seed)
				}
				continue
			}
			// Failed run: the fault may have hit the first pread or a
			// continuation pread after bytes were already read; the
			// caller-visible result must be identical either way.
			if r.inj.Injected(faults.HostReadEIO) == 0 {
				t.Fatalf("seed %d: read failed without an injected EIO: %v", seed, err)
			}
			if r.inj.Injected(faults.HostShortRead) > 0 {
				sawMid++ // a short pread landed before the EIO: mid-vector failure
			} else {
				sawFirst++
			}
			if len(ns) != 0 {
				t.Fatalf("seed %d: failed read leaked counts %v", seed, ns)
			}
		}
		t.Logf("EIO oracle: %d clean, %d failed on first pread, %d failed mid-vector", sawClean, sawFirst, sawMid)
		if sawClean == 0 || sawMid == 0 {
			t.Fatalf("seed sweep unbalanced (clean=%d first=%d mid=%d); faults not exercising the mid-vector path",
				sawClean, sawFirst, sawMid)
		}
	})
}

// TestSyscallTableComplete is the runtime half of the Sysno drift guard:
// every syscall has a handler, so a missing registration fails here and
// not at a kernel's first dispatch.
func TestSyscallTableComplete(t *testing.T) {
	svc := newRig(t, false).svc
	for sys := Sysno(0); sys < numSysno; sys++ {
		if svc.table[sys] == nil {
			t.Errorf("%v has no handler in Service.table", sys)
		}
	}
}
