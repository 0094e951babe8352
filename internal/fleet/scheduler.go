package fleet

import (
	"errors"
	"hash/fnv"

	"gpufs/internal/serve"
)

// The fleet scheduler extends the per-host placement story (serve/place.go:
// jobs follow their file's pages to the GPU whose buffer cache holds them,
// spilling when the affine GPU saturates) one level up, across machines:
//
//  1. Cache affinity: the healthy host whose GPUs hold the most resident
//     pages of the job's file goes first — re-reading a warm file on the
//     host that already paid for it is the cross-machine analogue of
//     GPUfs's buffer-cache hit.
//  2. Stable home: a cold file hashes to a deterministic home host, so
//     repeated traffic for one file converges on one cache instead of
//     smearing the working set across the fleet.
//  3. Spill: a host already carrying SpillLoad outstanding fleet jobs is
//     demoted from preferred target; remaining healthy hosts are tried in
//     ascending load order, so hot files cannot capsize one machine while
//     others idle.
//
// Only Healthy hosts are ever candidates: a cordoned, draining, replacing,
// or dead host receives no traffic (the model-based conformance test pins
// this invariant).

// pathHash gives a path's stable home index basis.
func pathHash(path string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(path))
	return h.Sum32()
}

// routeOrderLocked returns the healthy hosts in placement-preference order
// for path: affinity target, then the path's stable home, then everyone
// else by ascending outstanding load (ties by id, so the order — and thus
// the whole fleet schedule — is deterministic). Nil when no host is
// healthy. cp.mu held.
func (cp *ControlPlane) routeOrderLocked(path string) []*host {
	healthy := make([]*host, 0, len(cp.hosts))
	for _, h := range cp.hosts {
		if h.state == HostHealthy {
			healthy = append(healthy, h)
		}
	}
	if len(healthy) == 0 {
		return nil
	}

	// Insertion sort by (open, id): fleets are small and the slice is
	// rebuilt per placement.
	for i := 1; i < len(healthy); i++ {
		for k := i; k > 0; k-- {
			a, b := healthy[k-1], healthy[k]
			if a.open < b.open || (a.open == b.open && a.id < b.id) {
				break
			}
			healthy[k-1], healthy[k] = b, a
		}
	}

	var preferred []*host
	// Affinity: most resident pages wins (ties keep the least-loaded,
	// which the base order already provides).
	var affine *host
	var bestPages int64
	for _, h := range healthy {
		if p := h.backend.ResidentPages(path); p > bestPages {
			affine, bestPages = h, p
		}
	}
	if affine != nil && affine.open < cp.cfg.SpillLoad {
		preferred = append(preferred, affine)
	}
	// Stable home for cold (or evicted-everywhere) files.
	home := healthy[int(pathHash(path))%len(healthy)]
	if home.open < cp.cfg.SpillLoad {
		preferred = append(preferred, home)
	}

	order := make([]*host, 0, len(healthy))
	seen := make(map[int]bool, len(healthy))
	for _, h := range append(preferred, healthy...) {
		if !seen[h.id] {
			seen[h.id] = true
			order = append(order, h)
		}
	}
	return order
}

// placeLocked routes one job: it tries each healthy host in preference
// order, and the first admission becomes j's current attempt (j.h and
// j.incarnation). A host rejecting with serve's
// OverloadError (that tenant's queue is full there) just moves the probe
// along; if every healthy host is overloaded the first such rejection —
// from the host the job actually wanted — is returned with its RetryAfter
// hint intact. Non-overload rejections (malformed job, a host caught
// mid-drain) are returned immediately. cp.mu held; backend Submit never
// calls back into the control plane, so holding the lock across it is
// safe.
func (cp *ControlPlane) placeLocked(j *fleetJob) (*serve.Future, error) {
	order := cp.routeOrderLocked(j.spec.Path)
	if len(order) == 0 {
		return nil, ErrNoHealthyHosts
	}
	var overload error
	for _, h := range order {
		sfut, err := h.backend.Submit(j.tenant, j.spec)
		if err == nil {
			h.open++
			cp.met.openJobs.Add(1)
			j.h, j.incarnation = h, h.incarnation
			return sfut, nil
		}
		if errors.Is(err, serve.ErrOverloaded) {
			if overload == nil {
				overload = err
			}
			continue
		}
		if errors.Is(err, serve.ErrDraining) {
			// The monitor cordoned this host between our state check and
			// the submit — treat as not-a-candidate and move on.
			continue
		}
		return nil, err
	}
	if overload == nil {
		// Every candidate vanished mid-probe (all caught draining).
		return nil, ErrNoHealthyHosts
	}
	return nil, overload
}
