// Fleet mode: -hosts N (N > 1) runs the closed-loop workload against an
// internal/fleet control plane instead of a single server. The run is a
// remediation demo in three equal phases:
//
//	steady    — all hosts healthy; baseline served-jobs/s
//	fault     — a fatal XID is injected on host 0 once it runs a job
//	            and holds a queue; the health monitor cordons it, the
//	            remediator drains and replaces it while traffic keeps
//	            flowing
//	recovered — after AwaitRemediation; the rebuilt fleet's rate
//
// The strike waits for host 0 to report a job in flight and one queued,
// and the run fails if none shows before the phase ends. The run then
// prints the remediation event timeline, the per-host state table, and
// the phase throughput ratio, and exits non-zero if any admitted job was
// lost, no remediation happened, or the fault-phase rate fell below 60%
// of steady state.
//
// -migrate swaps the middle phase for a live-migration demo. It is the
// demo's choice of strike and sets no configuration: the remediator always
// migrates a host it can trust, and a fatal XID rightly makes it distrust
// the device's memory and replace the host cold. So instead of a fatal
// XID, host 0 is cordoned for planned maintenance, the remediator
// checkpoints it while its in-flight batches finish, and the image is
// restored onto the replacement. Extra exit gates: at least one migration
// completed, and at least 80% of the jobs in flight at cordon time finished
// in place without resubmission.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"gpufs"
	"gpufs/internal/faults"
	"gpufs/internal/fleet"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// fleetParams carries the parsed flags into fleet mode.
type fleetParams struct {
	hosts, tenants, outstanding, jobs int
	gpus, files, batch                int
	pol                               serve.Policy
	scale                             float64
	seed                              int64
	faults                            bool
	migrate                           bool
	reg                               *metrics.Registry // nil unless an exposition was asked for
	metricsOut, metricsNDJSON         string
}

func runFleet(p fleetParams) {
	// Shared deterministic corpus, written into every host (and every
	// replacement host) by the factory's Setup hook.
	paths, texts, words := makeCorpus(p.files, p.seed)

	// Every host gets a fault layer (the XID path needs an injector); the
	// -faults flag adds the standard background mix on top.
	fc := &faults.Config{Seed: p.seed}
	if p.faults {
		mix := faultMix(p.seed)
		fc = &mix
	}

	// Wrap the factory to retain each slot's current injector and backend,
	// so the demo can attack (or observe) the machine actually in the slot.
	var injMu sync.Mutex
	injs := make(map[int]*faults.Injector)
	backends := make(map[int]*inPlace)
	inner := fleet.SimHostFactory(fleet.SimHostConfig{
		Scale:   p.scale,
		NumGPUs: p.gpus,
		Serve: serve.Config{
			QueueDepth: p.outstanding,
			MaxBatch:   p.batch,
			Policy:     p.pol,
		},
		Faults: fc,
		Setup: func(hostID, incarnation int, sys *gpufs.System) error {
			for i, path := range paths {
				if err := sys.WriteHostFile(path, texts[i]); err != nil {
					return err
				}
			}
			return nil
		},
		Metrics: p.reg,
	})
	factory := func(hostID, incarnation int) (serve.Backend, *faults.Injector, error) {
		b, inj, err := inner(hostID, incarnation)
		if err != nil {
			return nil, nil, err
		}
		rec := &inPlace{Backend: b, done: make(map[uint64]bool)}
		injMu.Lock()
		injs[hostID] = inj
		backends[hostID] = rec
		injMu.Unlock()
		return rec, inj, nil
	}

	// The latency detector's defaults are tuned for homogeneous load; this
	// demo's skewed hot set legitimately makes affinity-home hosts ~8x
	// slower than idle peers, so widen the factor to keep the timeline
	// about the injected fault.
	cp, err := fleet.New(fleet.Config{
		Metrics:           p.reg,
		LatencyFactor:     32,
		LatencyMinSamples: 128,
	}, p.hosts, factory)
	if err != nil {
		fatal(err)
	}

	jobsPerPhase := p.jobs / 3
	if jobsPerPhase < 1 {
		jobsPerPhase = 1
	}
	mode := "faults"
	if p.migrate {
		mode = "migrate"
	}
	fmt.Printf("gpufs-serve fleet: %d hosts × %d GPU(s), %d tenants × 3×%d jobs (%d outstanding each), policy %v, batch %d, %s demo\n",
		p.hosts, p.gpus, p.tenants, jobsPerPhase, p.outstanding, p.pol, p.batch, mode)

	// strikeSample is host 0's in-flight jobs the instant before the demo
	// strikes it, by ID, and the (soon to be replaced) machine that runs
	// them, so the survival fraction counts exactly those jobs afterwards.
	type strikeSample struct {
		backend  *inPlace
		inflight []uint64
	}
	strikeCh := make(chan strikeSample, 1)

	phases := []string{"steady", "fault", "recovered"}
	if p.migrate {
		phases[1] = "migrate"
	}
	type phaseStat struct {
		name              string
		completed, failed int64
		elapsed           time.Duration
	}
	var stats []phaseStat
	host0 := func() *inPlace {
		injMu.Lock()
		defer injMu.Unlock()
		return backends[0]
	}
	for pi, name := range phases {
		var struck <-chan bool
		phaseDone := make(chan struct{})
		switch name {
		case "fault":
			// Strike mid-phase, while host 0 runs a job and holds a
			// queue: the drain then hands real jobs back for re-routing,
			// with traffic still flowing.
			struck = strikeWhenBusy(host0, phaseDone, func(*inPlace, []uint64) {
				injMu.Lock()
				inj := injs[0]
				injMu.Unlock()
				inj.InjectXID(0, 79, simtime.Time(pi))
			})
			fmt.Println("\n>> injecting XID 79 (GPU has fallen off the bus) on host 0 mid-phase")
		case "migrate":
			// Cordon mid-phase for planned maintenance. Deliberately not an
			// XID: a fatal XID taints the device's memory and the remediator
			// would (correctly) refuse to trust a checkpoint taken from it.
			// The cordon waits, like the XID, for host 0 to run a job and
			// hold a queue, so the survival gate always has jobs to count.
			struck = strikeWhenBusy(host0, phaseDone, func(b *inPlace, inflight []uint64) {
				strikeCh <- strikeSample{backend: b, inflight: inflight}
				cp.Cordon(0, "planned migration (demo)")
			})
			fmt.Println("\n>> cordoning host 0 for planned live migration mid-phase")
		}
		start := time.Now()
		completed, failed := closedLoop(p.tenants, p.outstanding, jobsPerPhase, paths, words,
			func(ti int) int64 { return p.seed*100 + int64(ti)*7 + int64(pi) },
			func(tenant string, job serve.Job) (func() error, error) {
				fut, err := cp.Submit(tenant, job)
				if err != nil {
					return nil, err
				}
				return func() error { return fut.Wait().Err }, nil
			})
		st := phaseStat{name: name, completed: completed, failed: failed, elapsed: time.Since(start)}
		stats = append(stats, st)
		rate := float64(st.completed) / st.elapsed.Seconds()
		fmt.Printf("phase %-9s %5d jobs, %d failed, %8.3fms wall, %8.0f jobs/s\n",
			st.name, st.completed, st.failed, float64(st.elapsed.Microseconds())/1000, rate)
		close(phaseDone)
		if struck != nil && !<-struck {
			fmt.Fprintf(os.Stderr, "gpufs-serve fleet: FAIL: host 0 never ran a job with another queued during the %s phase, so no strike tested anything\n", name)
			os.Exit(1)
		}
		if pi == 1 {
			// Let the replacement finish before measuring the recovered
			// rate, so phase 3 demonstrates the rebuilt fleet.
			cp.AwaitRemediation()
		}
	}
	cp.Drain()

	snap := cp.Snapshot()
	fmt.Println("\nremediation timeline:")
	for _, ev := range cp.Events() {
		fmt.Println("  ", ev)
	}
	fmt.Println("\nhosts:")
	for _, h := range snap.Hosts {
		fmt.Printf("  host %d inc %d  %-9s warn/crit/fatal XIDs %d/%d/%d",
			h.ID, h.Incarnation, h.State, h.WarnXIDs, h.CriticalXIDs, h.FatalXIDs)
		if h.Reason != "" {
			fmt.Printf("  (last cordon: %s)", h.Reason)
		}
		fmt.Println()
	}

	lost := snap.Admitted - snap.Delivered()
	fmt.Printf("\nfleet: %d admitted, %d succeeded, %d failed, %d re-routed, %d remediations (%d migrations), %d dead hosts\n",
		snap.Admitted, snap.Succeeded, snap.Failed, snap.Rebalanced, snap.Remediations, snap.Migrations, snap.DeadHosts)

	// In-flight survival: of the jobs host 0 was actively running at
	// cordon time, how many finished in place on the old incarnation
	// (rather than dying and being resubmitted elsewhere)? Jobs that
	// launched there after the sample are not among them. The strike
	// sampled at least one.
	survival := 1.0
	if p.migrate {
		s := <-strikeCh
		finishedInPlace := s.backend.finished(s.inflight)
		survival = float64(finishedInPlace) / float64(len(s.inflight))
		fmt.Printf("migration: %d jobs in flight at cordon, %d finished in place on the old host (%.0f%% survival)\n",
			len(s.inflight), finishedInPlace, survival*100)
	}

	steadyRate := float64(stats[0].completed) / stats[0].elapsed.Seconds()
	faultRate := float64(stats[1].completed) / stats[1].elapsed.Seconds()
	ratio := faultRate / steadyRate
	fmt.Printf("fault-phase throughput: %.0f%% of steady state\n", ratio*100)

	ok := true
	if lost != 0 {
		fmt.Fprintf(os.Stderr, "gpufs-serve fleet: FAIL: %d admitted job(s) lost\n", lost)
		ok = false
	}
	if snap.Remediations < 1 {
		fmt.Fprintln(os.Stderr, "gpufs-serve fleet: FAIL: the injected fault caused no remediation")
		ok = false
	}
	if ratio < 0.6 {
		fmt.Fprintf(os.Stderr, "gpufs-serve fleet: FAIL: fault-phase throughput %.0f%% of steady state (need >= 60%%)\n", ratio*100)
		ok = false
	}
	if p.migrate {
		if snap.Migrations < 1 {
			fmt.Fprintln(os.Stderr, "gpufs-serve fleet: FAIL: no live migration completed (checkpoint fell back to cold restart)")
			ok = false
		}
		if survival < 0.8 {
			fmt.Fprintf(os.Stderr, "gpufs-serve fleet: FAIL: only %.0f%% of in-flight jobs survived migration without resubmission (need >= 80%%)\n", survival*100)
			ok = false
		}
	}
	if ok {
		if p.migrate {
			fmt.Println("fleet demo OK: host checkpointed and live-migrated onto its replacement; zero admitted jobs lost")
		} else {
			fmt.Println("fleet demo OK: host cordoned, drained, and replaced; zero admitted jobs lost")
		}
	}

	reportMetrics(p.reg, p.metricsOut, p.metricsNDJSON)
	if !ok {
		os.Exit(1)
	}
}

// strikeWhenBusy calls strike once host 0 reports a job in flight and
// one queued, with the backend that runs them and the in-flight IDs it
// sampled: the strike then has launched jobs to finish or lose and queued
// ones to hand back. It polls until then or until stop closes (the
// phase's end bounds the wait), and the channel it returns reports
// whether it struck.
func strikeWhenBusy(host0 func() *inPlace, stop <-chan struct{}, strike func(b *inPlace, inflight []uint64)) <-chan bool {
	struck := make(chan bool, 1)
	go func() {
		tick := time.NewTicker(50 * time.Microsecond)
		defer tick.Stop()
		for {
			b := host0()
			if st := b.Stats(); st.Inflight > 0 && st.Queued > 0 {
				strike(b, st.InflightIDs)
				struck <- true
				return
			}
			select {
			case <-stop:
				struck <- false
				return
			case <-tick.C:
			}
		}
	}()
	return struck
}

// inPlace is a host's backend that notes, by job ID, each job it finished
// without error: the fleet re-runs elsewhere a job handed off, or one that
// failed on a host being drained.
type inPlace struct {
	serve.Backend
	mu   sync.Mutex
	done map[uint64]bool
}

func (b *inPlace) Submit(tenant string, job serve.Job) (*serve.Future, error) {
	inner, err := b.Backend.Submit(tenant, job)
	if err != nil {
		return nil, err
	}
	fut, resolve := serve.NewFuture()
	inner.Then(func(res serve.Result) {
		if res.Err == nil {
			b.mu.Lock()
			b.done[res.ID] = true
			b.mu.Unlock()
		}
		resolve(res)
	})
	return fut, nil
}

// finished counts the jobs of ids that b finished without error.
func (b *inPlace) finished(ids []uint64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, id := range ids {
		if b.done[id] {
			n++
		}
	}
	return n
}
