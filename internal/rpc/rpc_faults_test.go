package rpc

import (
	"errors"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/simtime"
)

// faultyHarness is harness with an injector installed on the server.
func faultyHarness(t *testing.T, cfg faults.Config) (*Server, *Client, *faults.Injector) {
	t.Helper()
	srv, cl := harness(t)
	inj := faults.New(cfg)
	srv.SetFaultInjector(inj)
	return srv, cl, inj
}

func TestTransientFailuresAreRetried(t *testing.T) {
	srv, cl, inj := faultyHarness(t, faults.Config{Seed: 1, RPCTransientProb: 0.5})
	c := simtime.NewClock(0)

	applied := 0
	for i := 0; i < 50; i++ {
		err := cl.Do(c, OpReadPages, func(*simtime.Clock) (simtime.Time, error) {
			applied++
			return 0, nil
		})
		if err != nil {
			t.Fatalf("request %d under 0.5 transient rate: %v", i, err)
		}
	}
	// A bounced attempt never reaches the handler.
	if applied != 50 {
		t.Fatalf("50 requests applied %d times", applied)
	}
	if cl.Retries() == 0 {
		t.Fatalf("0.5 transient rate over 50 requests caused no retries")
	}
	if inj.Injected(faults.RPCTransient) == 0 {
		t.Fatalf("injector never fired")
	}
	// Each bounced attempt is a separate ring transaction.
	if srv.Requests(OpReadPages) <= 50 {
		t.Fatalf("request count %d does not include retries", srv.Requests(OpReadPages))
	}
}

func TestDroppedResponsesDedupExactlyOnce(t *testing.T) {
	// Every response has a 40% chance of being lost. The client retries;
	// the server's dedup table must keep retries from re-applying the
	// handler (a pwrite, an O_TRUNC open), so N logical requests run it
	// exactly N times.
	srv, cl, _ := faultyHarness(t, faults.Config{Seed: 2, RPCDropResponseProb: 0.4})
	srv.cfg.MaxAttempts = 12 // drive per-op give-up odds to ~0
	c := simtime.NewClock(0)

	const writes = 40
	applied := 0
	for i := 0; i < writes; i++ {
		err := cl.Do(c, OpWritePages, func(*simtime.Clock) (simtime.Time, error) {
			applied++
			return 0, nil
		})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if applied != writes {
		t.Fatalf("%d writes applied %d times: dedup broken", writes, applied)
	}
	if cl.Timeouts() == 0 {
		t.Fatalf("0.4 drop rate over %d writes caused no timeouts", writes)
	}
	// Lost responses cost virtual time: each timeout spins for cfg.Timeout.
	if c.Now() < simtime.Time(responseTimeout) {
		t.Fatalf("timeouts cost no virtual time")
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	srv, cl, _ := faultyHarness(t, faults.Config{Seed: 3, RPCDropResponseProb: 1.0})
	c := simtime.NewClock(0)

	err := cl.Do(c, OpOpen, nop)
	if err == nil {
		t.Fatalf("request with every response dropped succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhaustion error is %v, want ErrTimeout", err)
	}
	if got := cl.Retries(); got != int64(srv.cfg.MaxAttempts-1) {
		t.Fatalf("retries = %d, want MaxAttempts-1 = %d", got, srv.cfg.MaxAttempts-1)
	}
}

func TestEIOIsNotRetried(t *testing.T) {
	// An error the handler returns is a valid reply: it must come back on
	// the first attempt, not burn the retry budget. That holds for a real
	// I/O error and equally for a handler's own ErrAgain — only the
	// daemon's injected bounce, which precedes the handler, is retried by
	// the transport. (The injector is live so the request takes the
	// retrying path.)
	errIO := errors.New("EIO")
	for _, want := range []error{errIO, ErrAgain} {
		_, cl, _ := faultyHarness(t, faults.Config{Seed: 4, RPCPollDelayProb: 1.0})
		applied := 0
		err := cl.Do(simtime.NewClock(0), OpReadPages, func(*simtime.Clock) (simtime.Time, error) {
			applied++
			return 0, want
		})
		if !errors.Is(err, want) || errors.Is(err, ErrTimeout) {
			t.Fatalf("handler returned %v, caller saw %v", want, err)
		}
		if applied != 1 || cl.Retries() != 0 {
			t.Fatalf("%v consumed retries: applied=%d retries=%d", want, applied, cl.Retries())
		}
	}
	if Retryable(errIO) {
		t.Fatalf("EIO classified transient")
	}
}

func TestHappyPathUnchangedByDisabledInjector(t *testing.T) {
	// With the injector disabled, request counts AND virtual timing must be
	// bit-identical to a server with no injector at all.
	run := func(install bool) (simtime.Time, int64) {
		srv, cl := harness(t)
		if install {
			inj := faults.New(faults.Config{Seed: 9, RPCDropResponseProb: 0.5})
			inj.SetEnabled(false)
			srv.SetFaultInjector(inj)
		}
		c := simtime.NewClock(0)
		if err := cl.Do(c, OpOpen, nop); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := cl.Do(c, OpReadPages, busy(3*simtime.Microsecond)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.SubmitAsync(c, OpReadPages, Request{Handle: busy(3 * simtime.Microsecond)}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Do(c, OpClose, nop); err != nil {
			t.Fatal(err)
		}
		return c.Now(), srv.TotalRequests()
	}
	bareT, bareN := run(false)
	injT, injN := run(true)
	if bareT != injT || bareN != injN {
		t.Fatalf("disabled injector perturbed the happy path: time %v vs %v, requests %d vs %d",
			bareT, injT, bareN, injN)
	}
}

// TestDroppedResponseChargesBothStretchesOnce: a two-stretch request whose
// responses are all lost is applied once — both stretches, by the first
// attempt — and the worker is charged for a dispatch per attempt plus exactly
// those two stretches, never for the transfer window between them.
func TestDroppedResponseChargesBothStretchesOnce(t *testing.T) {
	const first, dma, second = 3 * simtime.Microsecond, 100 * simtime.Microsecond, 7 * simtime.Microsecond
	srv, cl, _ := faultyHarness(t, faults.Config{Seed: 5, RPCDropResponseProb: 1.0})
	var runs [2]int
	err := cl.Submit(simtime.NewClock(0), OpWritePages, twoStretch(first, dma, second, &runs))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("every response dropped, got %v", err)
	}
	if runs != [2]int{1, 1} {
		t.Fatalf("stretches ran %v times over %d attempts, want once each", runs, srv.cfg.MaxAttempts)
	}
	want := simtime.Duration(srv.cfg.MaxAttempts)*srv.cfg.HandleCost + first + second
	if got := srv.DaemonBusy(); got != want {
		t.Fatalf("worker busy %v, want %d dispatches + the two stretches = %v", got, srv.cfg.MaxAttempts, want)
	}
}
