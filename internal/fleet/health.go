package fleet

import (
	"fmt"
	"sort"

	"gpufs/internal/faults"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// The health monitor condemns hosts from three signal families, all on
// virtual time (no wall-clock timers — a paused simulation never
// false-positives):
//
//   - XID events, pushed by each host's fault layer. Fatal codes (GPU off
//     the bus, uncontained ECC) cordon immediately; critical codes (GSP
//     timeouts, contained ECC) cordon after CriticalXIDLimit on one
//     incarnation; warnings only count.
//   - Latency: a per-host EWMA of job admission→completion time. A host
//     whose smoothed latency exceeds LatencyFactor× the median of its
//     healthy peers is degraded — still answering, but so slowly it drags
//     every tenant routed to it.
//   - Heartbeat: each completion anywhere is one fleet heartbeat. A host
//     holding outstanding jobs that misses StallProbes consecutive beats
//     has stopped making progress and is cordoned as stalled.
//
// Every signal is tagged with the host incarnation it was observed on;
// signals from a machine that has since been replaced are dropped, so a
// fresh incarnation starts with a clean record and cannot be condemned by
// its predecessor's sins.

// onXID is the injector subscription callback: classify, count, condemn.
func (cp *ControlPlane) onXID(hostID, incarnation int, ev faults.XIDEvent) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	h := cp.hosts[hostID]
	if h.incarnation != incarnation {
		return // straggler from a replaced machine
	}
	sev := ev.Severity()
	cp.met.xidEvents[sev].Inc()
	switch sev {
	case faults.XIDWarn:
		h.health.warnXIDs++
	case faults.XIDCritical:
		h.health.criticalXIDs++
		if h.state == HostHealthy && h.health.criticalXIDs >= int64(cp.cfg.CriticalXIDLimit) {
			cp.cordonLocked(h, fmt.Sprintf("%d critical XIDs, last: %v", h.health.criticalXIDs, ev))
		}
	default: // fatal
		h.health.fatalXIDs++
		if h.state == HostHealthy {
			cp.cordonLocked(h, ev.String())
		}
	}
}

// noteCompletionLocked feeds one successful-or-failed host completion into
// the latency EWMA and the fleet heartbeat. Handed-off jobs never reach here
// (they did not execute), so the signals measure real service. cp.mu held.
func (cp *ControlPlane) noteCompletionLocked(h *host, incarnation int, res serve.Result) {
	if h.incarnation != incarnation {
		return
	}
	hh := &h.health
	if lat := res.Done.Sub(res.Enqueued); lat > 0 {
		if hh.latSamples == 0 {
			hh.latEWMA = lat
		} else {
			hh.latEWMA = (hh.latEWMA*7 + lat) / 8
		}
		hh.latSamples++
	}
	hh.beatsMissed = 0

	if cp.cfg.StallProbes > 0 {
		for _, o := range cp.hosts {
			if o == h || o.state != HostHealthy || o.open == 0 {
				continue
			}
			o.health.beatsMissed++
			if o.health.beatsMissed >= cp.cfg.StallProbes {
				cp.cordonLocked(o, fmt.Sprintf(
					"stalled: %d outstanding jobs, no completion in %d fleet beats",
					o.open, o.health.beatsMissed))
			}
		}
	}
	cp.checkLatencyLocked(h)
}

// PumpXID consumes n ticks of hostID's organic XID schedule against the
// host's current virtual time — the hook chaos drivers and the demo loop
// use to let seeded device errors surface between batches. Events fan out
// to the health monitor through the normal subscription path. No-op for
// hosts without an injector, or dead hosts.
func (cp *ControlPlane) PumpXID(hostID, n int) {
	cp.mu.Lock()
	if hostID < 0 || hostID >= len(cp.hosts) {
		cp.mu.Unlock()
		return
	}
	h := cp.hosts[hostID]
	inj := h.inj
	if h.state == HostDead || inj == nil {
		cp.mu.Unlock()
		return
	}
	now := h.backend.Now()
	gpus := h.backend.NumGPUs()
	cp.mu.Unlock()
	// Unlocked: delivery re-enters the control plane via onXID.
	for i := 0; i < n; i++ {
		inj.MaybeXID(i%gpus, now)
	}
}

// checkLatencyLocked cordons h as degraded if its latency EWMA is an
// extreme outlier against the healthy-peer median. Both h and enough
// peers must have LatencyMinSamples observations — one slow job on a
// cold host proves nothing.
func (cp *ControlPlane) checkLatencyLocked(h *host) {
	if h.state != HostHealthy || h.health.latSamples < cp.cfg.LatencyMinSamples {
		return
	}
	var peers []simtime.Duration
	for _, o := range cp.hosts {
		if o == h || o.state != HostHealthy || o.health.latSamples < cp.cfg.LatencyMinSamples {
			continue
		}
		peers = append(peers, o.health.latEWMA)
	}
	if len(peers) == 0 {
		return // nothing to compare against; a one-host fleet is its own normal
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	median := peers[len(peers)/2]
	if median > 0 && float64(h.health.latEWMA) > cp.cfg.LatencyFactor*float64(median) {
		cp.cordonLocked(h, fmt.Sprintf("degraded: latency EWMA %v > %gx fleet median %v",
			h.health.latEWMA, cp.cfg.LatencyFactor, median))
	}
}
