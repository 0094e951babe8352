package fleet

import (
	"errors"

	"gpufs/internal/serve"
)

// The fleet scheduler applies a host's placement rule (serve/place.go: jobs
// follow their file's pages to the GPU whose buffer cache holds them,
// spilling only past a bounded share) one level up, across machines:
//
//  1. Cache affinity: the healthy host whose GPUs hold the most resident
//     pages of the job's file goes first — re-reading a warm file on the
//     host that already paid for it is the cross-machine analogue of
//     GPUfs's buffer-cache hit.
//  2. Stable home: a cold file's home is the host that owns GPU
//     serve.PathHash(path) mod N, where N counts every host's GPUs in id
//     order. Each host puts the file on GPU PathHash mod its own count, so
//     in a fleet of equal hosts one index picks both the host and the GPU,
//     and every GPU is home to an equal share of the files. The home does
//     not move with load; while it is not Healthy its files have no home.
//  3. Spill (bounded loads): a host loses its rank as affinity target or
//     home only when it is both busy (SpillLoad outstanding fleet jobs or
//     more) and over its share: ⌈(1+ε)·(O+1)·g/G⌉ jobs or more, where O
//     is the outstanding jobs on healthy hosts, g the host's GPUs, G the
//     healthy hosts' GPUs and ε = 1/10 (serve.OverShare, the bound a
//     host applies to its GPUs too). Below SpillLoad locality
//     always wins; above it a host sheds real imbalance, so a hot file
//     cannot capsize one machine while others idle, but not the ripple
//     of a balanced burst. A demoted host ranks with everyone else, in
//     ascending load order.
//
// Only Healthy hosts are ever candidates: a cordoned, draining, replacing,
// or dead host receives no traffic (the model-based conformance test pins
// this invariant).

// routeOrderLocked returns the healthy hosts in placement-preference order
// for path: affinity target, then the path's stable home, then everyone
// else by ascending outstanding load (ties by id, so the order — and thus
// the whole fleet schedule — is deterministic). The order is built in
// cp.route and read until the next call; empty when no host is healthy.
// cp.mu held.
func (cp *ControlPlane) routeOrderLocked(path string) []*host {
	// n counts every host's GPUs (the home index); healthyGPUs and open
	// the healthy hosts' GPUs and outstanding jobs (the bounded share).
	n, healthyGPUs, open := 0, 0, 0
	for _, h := range cp.hosts {
		gpus := h.backend.NumGPUs()
		n += gpus
		if h.state == HostHealthy {
			healthyGPUs += gpus
			open += h.open
		}
	}
	g := int(serve.PathHash(path) % uint32(n))
	var home, affine *host
	var bestPages int64
	for _, h := range cp.hosts {
		if g -= h.backend.NumGPUs(); g < 0 && home == nil {
			home = h
		}
		// Affinity: most resident pages wins, ties to the least loaded.
		if h.state == HostHealthy {
			if p := h.backend.ResidentPages(path); p > bestPages || p > 0 && p == bestPages && h.open < affine.open {
				affine, bestPages = h, p
			}
		}
	}
	rank := func(h *host) int {
		switch {
		// Busy and over its share: h.open >= ⌈(1+ε)·(open+1)·g/G⌉.
		case h.open >= cp.cfg.SpillLoad && serve.OverShare(h.open, open, h.backend.NumGPUs(), healthyGPUs):
			return 2
		case h == affine:
			return 0
		case h == home:
			return 1
		}
		return 2
	}
	// Insertion by (rank, open): hosts arrive in id order, and fleets are
	// small.
	order := cp.route[:0]
	for _, h := range cp.hosts {
		if h.state != HostHealthy {
			continue
		}
		k := len(order)
		order = append(order, h)
		for ; k > 0 && (rank(order[k-1]) > rank(h) || rank(order[k-1]) == rank(h) && order[k-1].open > h.open); k-- {
			order[k] = order[k-1]
		}
		order[k] = h
	}
	cp.route = order
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
