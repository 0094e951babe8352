// Package pcie models the peripheral interconnect between the host CPU and
// the discrete GPUs: a PCIe 2.0 link per device with full-duplex DMA,
// multiple asynchronous channels per direction (§4.3), a fixed
// per-transaction setup latency, and — critically for the paper's RPC
// design — no atomic operations across the bus, which is why GPU–CPU
// coordination must go through message-passing queues rather than one-sided
// locking.
//
// DMA transfers move real bytes immediately and account virtual time on
// three resources: the link direction's channel pool (PCIe bandwidth), the
// host memory bus (the staging copy through pinned host memory), and the
// device memory bandwidth. Sharing the host memory bus with the file
// system's page-cache copies reproduces the measured gap between raw PCIe
// bandwidth (5731 MB/s) and achieved file-to-GPU throughput (~3100 MB/s).
package pcie

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"gpufs/internal/faults"
	"gpufs/internal/metrics"
	"gpufs/internal/simtime"
)

// Config parameterizes the bus.
type Config struct {
	// Bandwidth is the per-direction PCIe bandwidth.
	Bandwidth simtime.Rate
	// DMALatency is the fixed per-transaction setup cost.
	DMALatency simtime.Duration
	// Channels is the number of concurrent DMA channels per direction.
	Channels int
	// HostMemBandwidth is the host DRAM bandwidth used for the staging
	// pass through pinned memory.
	HostMemBandwidth simtime.Rate
}

// Bus is the host-side interconnect complex. One Link is created per GPU.
type Bus struct {
	cfg     Config
	membus  *simtime.Resource
	exclude atomic.Bool
	links   []*Link
	met     *metrics.Registry

	// inj injects DMA stalls and bandwidth degradation; nil means none.
	inj atomic.Pointer[faults.Injector]
}

// SetFaultInjector installs (or, with nil, removes) the bus's fault
// injector; it governs every link.
func (b *Bus) SetFaultInjector(inj *faults.Injector) { b.inj.Store(inj) }

// SetMetrics attaches a metrics registry to the bus. It must be called
// before NewLink: each link resolves its instrument handles at creation.
// A nil registry (the default) keeps every hook at a single pointer test.
func (b *Bus) SetMetrics(reg *metrics.Registry) { b.met = reg }

// New creates a bus whose staging copies contend on the given host memory
// bus resource (shared with hostfs page-cache copies). membus may be nil,
// in which case staging contention is not modelled.
func New(cfg Config, membus *simtime.Resource) *Bus {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	return &Bus{cfg: cfg, membus: membus}
}

// SetExcludeDMA toggles the Figure 5 cost-exclusion mode: when set, DMA
// transfers still move data but cost zero virtual time.
func (b *Bus) SetExcludeDMA(on bool) { b.exclude.Store(on) }

// NewLink attaches a device and returns its point-to-point link. devMemBW
// is the device's memory-bandwidth resource and devRate its bandwidth
// (transfers land in device memory); devMemBW may be nil to skip that pass.
func (b *Bus) NewLink(deviceID int, devMemBW *simtime.Resource, devRate simtime.Rate) *Link {
	l := &Link{
		bus:     b,
		id:      deviceID,
		h2d:     simtime.NewPool(fmt.Sprintf("pcie%d-h2d", deviceID), b.cfg.Channels),
		d2h:     simtime.NewPool(fmt.Sprintf("pcie%d-d2h", deviceID), b.cfg.Channels),
		devbw:   devMemBW,
		devRate: devRate,
	}
	if reg := b.met; reg != nil {
		gpu := strconv.Itoa(deviceID)
		m := &linkMetrics{scatterSegs: reg.Counter("gpufs_pcie_scatter_segments_total", "gpu", gpu)}
		reg.SetHelp("gpufs_pcie_bytes_total", "Bytes moved over the PCIe link per direction")
		reg.SetHelp("gpufs_pcie_dma_total", "DMA transactions charged on the link")
		reg.SetHelp("gpufs_pcie_latency_seconds", "Virtual end-to-end DMA transaction latency per direction")
		reg.SetHelp("gpufs_pcie_scatter_segments_total", "Scatter-gather descriptors walked by vectored DMAs")
		for dir, ctr := range map[string]*atomic.Int64{"H2D": &l.bytesH2D, "D2H": &l.bytesD2H} {
			ctr := ctr
			reg.CounterFunc("gpufs_pcie_bytes_total", ctr.Load, "gpu", gpu, "dir", dir)
		}
		reg.CounterFunc("gpufs_pcie_dma_total", l.dmas.Load, "gpu", gpu)
		m.lat[HostToDevice] = reg.DurationHistogram("gpufs_pcie_latency_seconds", "gpu", gpu, "dir", "H2D")
		m.lat[DeviceToHost] = reg.DurationHistogram("gpufs_pcie_latency_seconds", "gpu", gpu, "dir", "D2H")
		l.met = m
	}
	b.links = append(b.links, l)
	return l
}

// linkMetrics holds a link's pre-resolved instrument handles; nil when
// metrics are disabled.
type linkMetrics struct {
	lat         [2]*metrics.Histogram
	scatterSegs *metrics.Counter
}

// Link is the PCIe connection of one GPU.
type Link struct {
	bus     *Bus
	id      int
	h2d     *simtime.Pool
	d2h     *simtime.Pool
	devbw   *simtime.Resource
	devRate simtime.Rate

	bytesH2D atomic.Int64
	bytesD2H atomic.Int64
	dmas     atomic.Int64

	met *linkMetrics
}

// Direction of a transfer.
type Direction int

// Transfer directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
)

// String renders the transfer direction (H2D or D2H).
func (dir Direction) String() string {
	if dir == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Copy performs a DMA of len(src) bytes (dst must be at least as long),
// starting no earlier than now, and returns the transfer's virtual
// completion time. The bytes are copied for real. Concurrent transfers in
// the same direction queue on the link's channel pool.
func (l *Link) Copy(now simtime.Time, dir Direction, dst, src []byte) (simtime.Time, error) {
	if len(dst) < len(src) {
		return now, fmt.Errorf("pcie: dst %d bytes < src %d bytes", len(dst), len(src))
	}
	copy(dst, src)
	return l.Charge(now, dir, int64(len(src))), nil
}

// Charge accounts a staged DMA of n bytes into or out of one buffer without
// moving data (for transfers whose payload is modelled elsewhere) and
// returns the completion time.
func (l *Link) Charge(now simtime.Time, dir Direction, n int64) simtime.Time {
	return l.ChargeScatter(now, dir, n, 1, false)
}

// ChargeScatter accounts a DMA of n bytes scattered across segs separate
// device buffers: one transaction, plus a per-descriptor surcharge (an
// eighth of the setup latency per extra segment) for the scatter-gather
// entries the engine walks, so a vectored transfer amortizes — but does not
// erase — the per-page transfer cost that separates Figure 4's page sizes.
// pinned marks a payload the daemon read or wrote DIRECTLY in pinned host
// memory: the hostfs pread's own memory-bus pass covered the landing copy,
// so the staging pass through host DRAM is skipped and nothing else.
func (l *Link) ChargeScatter(now simtime.Time, dir Direction, n int64, segs int, pinned bool) simtime.Time {
	if segs > 1 {
		if m := l.met; m != nil {
			m.scatterSegs.Add(int64(segs))
		}
		if !l.bus.exclude.Load() {
			now = now.Add(l.bus.cfg.DMALatency / 8 * simtime.Duration(segs-1))
		}
	}
	if n < 0 {
		n = 0
	}
	reqStart := now
	l.dmas.Add(1)
	if dir == HostToDevice {
		l.bytesH2D.Add(n)
	} else {
		l.bytesD2H.Add(n)
	}
	if l.bus.exclude.Load() {
		if m := l.met; m != nil {
			m.lat[dir].ObserveSpan(reqStart, now)
		}
		return now
	}

	inj := l.bus.inj.Load()
	if inj.Should(faults.DMAStall, now) {
		// The DMA engine stalls before starting the transfer (descriptor
		// fetch delay, engine contention).
		now = now.Add(inj.Delay(faults.DMAStall))
	}

	// Staging pass through pinned host memory (skipped when the payload
	// was produced in pinned memory to begin with).
	start := now
	if l.bus.membus != nil && !pinned {
		_, start = l.bus.membus.Acquire(now, simtime.TransferTime(n, l.bus.cfg.HostMemBandwidth))
	}
	// Bus transfer.
	bw := l.bus.cfg.Bandwidth
	if inj.Should(faults.DMADegrade, start) {
		// Link retraining / replay storms degrade effective bandwidth for
		// this transfer.
		bw = simtime.Rate(float64(bw) * inj.DegradeFactor())
		if bw < 1 {
			bw = 1
		}
	}
	cost := l.bus.cfg.DMALatency + simtime.TransferTime(n, bw)
	var end simtime.Time
	if dir == HostToDevice {
		_, end = l.h2d.Acquire(start, cost)
	} else {
		_, end = l.d2h.Acquire(start, cost)
	}
	// Device memory pass (cheap relative to PCIe, but contends with
	// kernel memory traffic).
	if l.devbw != nil && l.devRate > 0 {
		_, end = l.devbw.Acquire(end, simtime.TransferTime(n, l.devRate))
	}
	if m := l.met; m != nil {
		m.lat[dir].ObserveSpan(reqStart, end)
	}
	return end
}

// Stats reports cumulative transfer counts.
func (l *Link) Stats() (h2d, d2h, transfers int64) {
	return l.bytesH2D.Load(), l.bytesD2H.Load(), l.dmas.Load()
}

// Reset clears the link's timelines and counters.
func (l *Link) Reset() {
	l.h2d.Reset()
	l.d2h.Reset()
	l.bytesH2D.Store(0)
	l.bytesD2H.Store(0)
	l.dmas.Store(0)
}
