package fleet

import (
	"fmt"

	"gpufs/internal/ckpt"
	"gpufs/internal/simtime"
)

// The remediation loop. One goroutine walks cordoned hosts through
//
//	Cordoned ─▶ Draining ─▶ Replacing ─▶ Healthy (or Dead)
//
// while the frontend keeps admitting traffic to the rest of the fleet:
//
//   - Draining calls the backend's DrainForHandoff WITHOUT the control
//     plane lock — admission, routing, and snapshots proceed throughout.
//     Jobs the host had queued but never launched come back completed
//     with serve.ErrHandedOff, and settle re-routes each one to a healthy
//     host from a goroutine of its own. Jobs already in flight finish
//     where they are (their results are valid — the kernels are
//     read-only — and re-executing them elsewhere would double-run work
//     the exactly-once story forbids).
//   - The drain step is migrate-first: a host with no fatal XID is
//     Checkpointed (the same queue freeze and handoff semantics, plus a
//     walk of every GPU's cache and file tables concurrent with the
//     in-flight batches), and the image is restored onto the
//     replacement so it enters rotation warm. Plain
//     drain+restart is the fallback, automatic and total: a capture
//     error or budget overrun, a fatal XID before or during the snapshot
//     (the device's memory — and therefore the image — is suspect), or a
//     failed restore each degrade to a cold replacement, never to a lost
//     job or a stale page.
//   - Replacing calls the host factory, also without the lock (a real
//     factory provisions a machine; even the simulated one builds a whole
//     gpufs.System). Success installs the new backend under a bumped
//     incarnation with a clean health record; failure marks the slot
//     Dead, and the fleet runs on at reduced capacity.
//
// Cordoning is a one-way door per incarnation: once a host leaves
// Healthy, only a successful replacement brings traffic back to the slot.

// Cordon manually cordons a healthy host (the operator's knob; the chaos
// tests' kill switch). It reports false if the id is out of range or the
// host already left Healthy.
func (cp *ControlPlane) Cordon(hostID int, reason string) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if hostID < 0 || hostID >= len(cp.hosts) {
		return false
	}
	h := cp.hosts[hostID]
	if h.state != HostHealthy {
		return false
	}
	cp.cordonLocked(h, reason)
	return true
}

// cordonLocked moves h out of the traffic rotation and wakes the
// remediator. cp.mu held.
func (cp *ControlPlane) cordonLocked(h *host, reason string) {
	h.state = HostCordoned
	h.reason = reason
	cp.met.cordons.Inc()
	cp.eventLocked(h.id, "cordon", "%s", reason)
	cp.cond.Broadcast()
}

// remediator is the control plane's single remediation worker. Serializing
// replacements is deliberate: remediation capacity is itself a resource,
// and draining every sick host at once could empty the fleet.
func (cp *ControlPlane) remediator() {
	defer cp.remWG.Done()
	for {
		cp.mu.Lock()
		var h *host
		for {
			h = nil
			for _, c := range cp.hosts {
				if c.state == HostCordoned {
					h = c
					break
				}
			}
			if h != nil || cp.stopping {
				break
			}
			cp.cond.Wait()
		}
		if h == nil {
			cp.mu.Unlock()
			return // stopping, and no cordoned host left behind
		}
		h.state = HostDraining
		oldInc := h.incarnation
		backend := h.backend
		// A fatal XID means the device fell off the bus or its memory is
		// uncontained — an image captured from it cannot be trusted.
		migrate := h.health.fatalXIDs == 0
		cp.eventLocked(h.id, "drain", "incarnation %d draining: %s", oldInc, h.reason)
		cp.cond.Broadcast()
		cp.mu.Unlock()

		// Unlocked: queued jobs come back ErrHandedOff (settled on this
		// goroutine, re-routed on others concurrently with this call),
		// in-flight jobs finish. A
		// trusted host is checkpointed instead — same freeze, plus the
		// cache walk — and a failed checkpoint still drains, so the
		// DrainForHandoff fallback below is a no-op returning 0.
		var img *ckpt.Image
		if migrate {
			var err error
			img, err = backend.Checkpoint()
			if err != nil {
				img = nil
				cp.mu.Lock()
				cp.met.ckptFallbacks.Inc()
				cp.eventLocked(h.id, "ckpt-failed", "%v; falling back to drain+restart", err)
				cp.mu.Unlock()
			}
		}
		handed := 0
		if img != nil {
			img.SourceHost = int64(h.id)
			handed = len(img.Queued)
		} else {
			handed = backend.DrainForHandoff()
		}

		cp.mu.Lock()
		if img != nil && h.health.fatalXIDs > 0 {
			// The fatal XID landed mid-snapshot: the capture window
			// overlaps a device whose memory integrity just failed.
			cp.met.ckptFallbacks.Inc()
			cp.eventLocked(h.id, "ckpt-discard", "fatal XID during snapshot; image discarded")
			img = nil
		}
		if img != nil {
			cp.eventLocked(h.id, "checkpoint", "image captured: %d dirty pages, %d clean refs, %d bytes",
				img.DirtyPages(), img.CleanPages(), img.Bytes())
		}
		cp.met.handoffs.Add(int64(handed))
		cp.eventLocked(h.id, "handoff", "%d queued jobs handed off, in-flight complete", handed)
		h.state = HostReplacing
		cp.cond.Broadcast()
		cp.mu.Unlock()

		// Unlocked: provisioning a replacement can be slow.
		nb, inj, err := cp.factory(h.id, oldInc+1)

		if err == nil && img != nil {
			// Unlocked too: the restore replays cache contents through the
			// new machine's full RPC path.
			if rerr := nb.Restore(img); rerr != nil {
				cp.mu.Lock()
				cp.met.ckptFallbacks.Inc()
				cp.eventLocked(h.id, "restore-failed", "%v; replacement enters rotation cold", rerr)
				cp.mu.Unlock()
			} else {
				lat := simtime.Duration(img.CaptureEnd-img.CaptureStart) +
					nb.Now().Sub(simtime.Time(0))
				cp.mu.Lock()
				cp.migrations++
				cp.met.migrations.Inc()
				cp.met.migrationNs.Add(int64(lat))
				cp.eventLocked(h.id, "migrate",
					"incarnation %d enters rotation warm (%v virtual capture+restore)", oldInc+1, lat)
				cp.mu.Unlock()
			}
		}

		cp.mu.Lock()
		if err != nil {
			h.state = HostDead
			h.reason = fmt.Sprintf("replacement failed: %v", err)
			cp.eventLocked(h.id, "replace-failed", "%v", err)
			cp.eventLocked(h.id, "dead", "slot retired, fleet capacity reduced")
		} else {
			h.backend = nb
			h.inj = inj
			h.incarnation = oldInc + 1
			h.state = HostHealthy
			h.reason = ""
			h.open = 0
			h.health = hostHealth{}
			cp.remediations++
			cp.met.remediations.Inc()
			cp.eventLocked(h.id, "replace", "incarnation %d in rotation", h.incarnation)
			cp.subscribeXID(h.id, h.incarnation, inj)
		}
		cp.cond.Broadcast()
		cp.mu.Unlock()
	}
}
