package bench

import (
	"testing"

	"gpufs"
	"gpufs/internal/serve"
	"gpufs/internal/simtime/simtest"
)

// TestServeShapes checks the serving bench's headline claims at test
// scale: cache-affinity placement beats round-robin on buffer-cache hit
// rate (and page faults), and continuous batching amortises the kernel
// launch — which shows where launches are what a job costs: on small
// cache-resident jobs, one launch per request is capped near one job per
// launch overhead per GPU. (On the fault-bound shape they are not: since
// launches overlap, a one-job kernel no longer holds the device's other
// slots idle until it ends, and at this scale batch 1 overtakes batch 16
// there.)
func TestServeShapes(t *testing.T) {
	simtest.OneP(t)
	// Much lighter than the real table — fewer tenants, jobs, and pages —
	// but the same capacity crossover: half the corpus fits one GPU's
	// cache, the whole corpus does not.
	const scale = 1.0 / 256
	sc := serveCase{
		numGPUs:    2,
		files:      16,
		pagesEach:  6,  // corpus: 96 pages
		cachePages: 60, // half corpus (48) fits, whole corpus does not
		tenants:    4,
		jobsEach:   24,
		depth:      8,
	}

	affinity, err := runServe(scale, sc, serve.PlaceAffinity, 16)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := runServe(scale, sc, serve.PlaceRoundRobin, 16)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runServe(scale, sc, serve.PlaceAffinity, 1)
	if err != nil {
		t.Fatal(err)
	}

	if affinity.hitRate <= rr.hitRate {
		t.Errorf("affinity hit rate %.2f not above round-robin %.2f",
			affinity.hitRate, rr.hitRate)
	}
	if affinity.pageFaults >= rr.pageFaults {
		t.Errorf("affinity page faults %d not below round-robin %d",
			affinity.pageFaults, rr.pageFaults)
	}
	launch := launchBoundServeCase()
	launch.tenants, launch.jobsEach = sc.tenants, 100
	batched, err := runServe(scale, launch, serve.PlaceAffinity, 16)
	if err != nil {
		t.Fatal(err)
	}
	perLaunch, err := runServe(scale, launch, serve.PlaceAffinity, 1)
	if err != nil {
		t.Fatal(err)
	}
	if batched.throughput < 2*perLaunch.throughput {
		t.Errorf("launch-bound: batched throughput %.0f not twice one-launch-per-request %.0f",
			batched.throughput, perLaunch.throughput)
	}
	// One launch per request cannot beat the launch threads: one kernel per
	// launch overhead per GPU.
	if limit := float64(launch.numGPUs) / gpufs.ScaledConfig(scale).KernelLaunchOverhead.Seconds(); perLaunch.throughput > limit {
		t.Errorf("launch-bound: one-launch-per-request ran %.0f jobs/s, above the launch threads' %.0f",
			perLaunch.throughput, limit)
	}
	if serial.batchMean != 1.0 {
		t.Errorf("batch-1 run averaged %.2f jobs/launch, want exactly 1", serial.batchMean)
	}
	if affinity.batchMean <= 1.5 {
		t.Errorf("batch-16 run averaged %.2f jobs/launch: batching never engaged", affinity.batchMean)
	}
}
