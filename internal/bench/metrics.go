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

// newSystem is the bench suite's system constructor: gpufs.NewSystem plus
// the shared registry, when attached.
func newSystem(cfg gpufs.Config) (*gpufs.System, error) {
	return gpufs.NewSystemWithMetrics(cfg, benchReg)
}
