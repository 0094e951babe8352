package pcie

import (
	"bytes"
	"testing"

	"gpufs/internal/simtime"
)

func testBus(membus *simtime.Resource) *Bus {
	return New(Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}, membus)
}

func TestCopyMovesBytes(t *testing.T) {
	l := testBus(nil).NewLink(0, nil, 0)
	src := []byte("dma payload")
	dst := make([]byte, len(src))
	done, err := l.Copy(0, HostToDevice, dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("payload not copied")
	}
	if done <= 0 {
		t.Fatalf("transfer should cost time")
	}
	if len(dst) > 0 {
		if _, err := l.Copy(0, HostToDevice, dst[:1], src); err == nil {
			t.Fatalf("short destination must fail")
		}
	}
}

func TestChargeAccounting(t *testing.T) {
	l := testBus(nil).NewLink(0, nil, 0)
	l.Charge(0, HostToDevice, 1<<20)
	l.Charge(0, DeviceToHost, 2<<20)
	h2d, d2h, dmas := l.Stats()
	if h2d != 1<<20 || d2h != 2<<20 || dmas != 2 {
		t.Fatalf("stats: %d %d %d", h2d, d2h, dmas)
	}
	l.Reset()
	if h2d, _, _ := l.Stats(); h2d != 0 {
		t.Fatalf("reset failed")
	}
}

func TestFullDuplex(t *testing.T) {
	l := testBus(nil).NewLink(0, nil, 0)
	e1 := l.Charge(0, HostToDevice, 64<<20)
	e2 := l.Charge(0, DeviceToHost, 64<<20)
	// Opposite directions overlap (independent pools): both finish at
	// roughly the same virtual instant.
	diff := int64(e1) - int64(e2)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(simtime.Millisecond) {
		t.Fatalf("duplex transfers should overlap: %v vs %v", e1, e2)
	}
}

func TestChannelsParallelize(t *testing.T) {
	l := testBus(nil).NewLink(0, nil, 0)
	const n = 1 << 20
	single := l.Charge(0, HostToDevice, n)
	l.Reset()
	// Four transfers at t=0 ride the four channels in parallel.
	var last simtime.Time
	for i := 0; i < 4; i++ {
		if e := l.Charge(0, HostToDevice, n); e > last {
			last = e
		}
	}
	if last > single+simtime.Time(simtime.Millisecond) {
		t.Fatalf("4 transfers on 4 channels took %v, single took %v", last, single)
	}
}

func TestExcludeDMA(t *testing.T) {
	b := testBus(nil)
	l := b.NewLink(0, nil, 0)
	b.SetExcludeDMA(true)
	src := []byte("still moves data")
	dst := make([]byte, len(src))
	done, err := l.Copy(100, HostToDevice, dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if done != 100 {
		t.Fatalf("excluded DMA should be free: %v", done)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("excluded DMA must still move real bytes")
	}
	b.SetExcludeDMA(false)
	if done := l.Charge(0, HostToDevice, 1<<20); done == 0 {
		t.Fatalf("after re-enable, DMA should cost time")
	}
}

func TestStagingContendsOnHostMemBus(t *testing.T) {
	membus := simtime.NewResource("membus")
	l := testBus(membus).NewLink(0, nil, 0)
	l.Charge(0, HostToDevice, 64<<20)
	if membus.Busy() == 0 {
		t.Fatalf("staging pass must charge the host memory bus")
	}
}

// TestChargeScatter: one segment costs a plain transfer, every further
// segment an eighth of the setup latency, and a pinned payload skips the
// staging pass (and only that).
func TestChargeScatter(t *testing.T) {
	const n = 1 << 20
	cost := func(segs int, pinned bool) (simtime.Duration, simtime.Duration) {
		membus := simtime.NewResource("membus")
		l := testBus(membus).NewLink(0, nil, 0)
		return simtime.Duration(l.ChargeScatter(0, HostToDevice, n, segs, pinned)), membus.Busy()
	}
	plain, staged := cost(1, false)
	if want := simtime.Duration(testBus(simtime.NewResource("membus")).NewLink(0, nil, 0).Charge(0, HostToDevice, n)); plain != want {
		t.Errorf("one-segment scatter cost %v, Charge %v", plain, want)
	}
	if got, _ := cost(5, false); got-plain != 4*(15*simtime.Microsecond/8) {
		t.Errorf("four extra segments cost %v more, want 4 x latency/8", got-plain)
	}
	pinned, pinnedStaged := cost(1, true)
	if pinnedStaged != 0 || plain-pinned != staged {
		t.Errorf("pinned transfer cost %v (membus %v), staged %v (membus %v): want them to differ by the staging pass alone",
			pinned, pinnedStaged, plain, staged)
	}
}

func TestDeviceMemoryPass(t *testing.T) {
	devbw := simtime.NewResource("devbw")
	l := testBus(nil).NewLink(0, devbw, 144_000*simtime.MBps)
	l.Charge(0, HostToDevice, 64<<20)
	if devbw.Busy() == 0 {
		t.Fatalf("device memory landing must be charged")
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Fatalf("direction strings")
	}
}
