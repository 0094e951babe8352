package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestFutureThen hands a Future's result to a handler attached before the
// result, after it, and racing it: the handler runs exactly once with the
// result, on the resolving goroutine or on the attaching one.
func TestFutureThen(t *testing.T) {
	t.Run("before", func(t *testing.T) {
		fut, resolve := NewFuture()
		var got []uint64
		fut.Then(func(r Result) { got = append(got, r.ID) })
		if len(got) != 0 {
			t.Fatal("handler ran before the result")
		}
		resolve(Result{ID: 7})
		if len(got) != 1 || got[0] != 7 {
			t.Fatalf("handler saw %v, want [7] on the resolving goroutine", got)
		}
	})
	t.Run("after", func(t *testing.T) {
		fut, resolve := NewFuture()
		resolve(Result{ID: 9})
		var got []uint64
		fut.Then(func(r Result) { got = append(got, r.ID) })
		if len(got) != 1 || got[0] != 9 {
			t.Fatalf("handler saw %v, want [9] at once", got)
		}
	})
	t.Run("racing", func(t *testing.T) {
		const n = 2000
		var ran, wrong atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			fut, resolve := NewFuture()
			id := uint64(i)
			wg.Add(2)
			go func() {
				defer wg.Done()
				resolve(Result{ID: id})
			}()
			go func() {
				defer wg.Done()
				fut.Then(func(r Result) {
					ran.Add(1)
					if r.ID != id {
						wrong.Add(1)
					}
				})
			}()
		}
		wg.Wait()
		if ran.Load() != n || wrong.Load() != 0 {
			t.Fatalf("%d futures: handlers ran %d times, %d with another's result", n, ran.Load(), wrong.Load())
		}
	})
}

// TestJobFitsItsSizeClass pins the job record, its Future inline, to the
// 192-byte allocation size class it had when the Future was a separate
// allocation, so the handler field costs Server.Submit no bytes.
func TestJobFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(job{}); n > 192 {
		t.Fatalf("job is %d bytes, past the 192-byte size class", n)
	}
}

// TestFutureReadsAnyNumberOfTimes reads one Future many ways: two Waits
// parked before the result, a Then handler, two Waits after the result, and
// Done after Wait. Every read sees the result and none blocks once it is in.
func TestFutureReadsAnyNumberOfTimes(t *testing.T) {
	fut, resolve := NewFuture()
	ids := make(chan uint64, 5)
	var parked sync.WaitGroup
	for i := 0; i < 2; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			ids <- fut.Wait().ID
		}()
	}
	fut.Then(func(r Result) { ids <- r.ID })
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		resolve(Result{ID: 11})
		parked.Wait()
		ids <- fut.Wait().ID
		ids <- fut.Wait().ID
		<-fut.Done()
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("a second Wait, or Done after Wait, blocked on a resolved Future")
	}
	close(ids)
	n := 0
	for id := range ids {
		if n++; id != 11 {
			t.Fatalf("a read returned job %d, want 11", id)
		}
	}
	if n != 5 {
		t.Fatalf("%d reads returned, want 5", n)
	}
}
