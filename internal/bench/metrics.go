package bench

import (
	"gpufs"
	"gpufs/internal/metrics"
)

// benchReg is the registry shared by every system a bench run builds; nil
// (the default) keeps metrics off. Counter collectors registered by several
// systems on the same series identity are summed at snapshot time, so a
// sweep's aggregate export reflects the whole run.
var benchReg *metrics.Registry

// SetMetricsRegistry attaches a metrics registry to every system the bench
// suite constructs from now on (nil detaches). Not safe to call while a
// benchmark is running.
func SetMetricsRegistry(reg *metrics.Registry) { benchReg = reg }

// benchOrdering is the syscall ordering stamped on every system the bench
// suite builds, unless an experiment pins its own (the Ordering sweep does).
var benchOrdering = "strong"

// SetDefaultOrdering sets the syscall ordering ("strong"/"relaxed")
// applied to subsequently constructed bench systems that do not choose
// one themselves. Not safe to call while a benchmark is running.
func SetDefaultOrdering(ordering string) { benchOrdering = ordering }

// newSystem is the bench suite's system constructor: gpufs.NewSystem plus
// the default ordering and the shared registry, when attached.
func newSystem(cfg gpufs.Config) (*gpufs.System, error) {
	cfg.SyscallOrdering = benchOrdering
	return gpufs.NewSystemWithMetrics(cfg, benchReg)
}
