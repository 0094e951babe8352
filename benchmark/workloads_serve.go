package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"gpufs"
	"gpufs/internal/faults"
	"gpufs/internal/fleet"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// The two serving workloads. Both submit JobSearch jobs over small
// cache-resident text files and check every count against
// workloads.CountWord.

const (
	jobFileBytes = 64 << 10
	jobPageSize  = 32 << 10
	// needle occurs in the corpus only as a whole token (every other token
	// is drawn from a..y), so JobSearch's substring count and CountWord's
	// token count are the same number.
	needle = "zz"
)

// serveC0 is serve_open's backlogged capacity in jobs per virtual second,
// measured when the benchmark landed (100.9k at seed 1) and then FROZEN: a
// parent commit and a change must see identical offered load, so the rates
// below never follow the code under test.
const serveC0 = 100_000

// serveRates are the frozen offered rates r40..r120 = 0.4..1.2 x serveC0.
var serveRates = []struct {
	name string
	rate float64
}{
	{"r40", 0.4 * serveC0}, {"r60", 0.6 * serveC0}, {"r80", 0.8 * serveC0},
	{"r100", 1.0 * serveC0}, {"r120", 1.2 * serveC0},
}

// serveTune sets what both serving workloads change in the base config:
// the page size, and no more device memory than the buffer cache needs (a
// fresh host per run should not spend its set-up clearing unused memory).
func serveTune(cfg *gpufs.Config) {
	cfg.PageSize = jobPageSize
	cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
}

var serveConfig = serve.Config{Policy: serve.PlaceAffinity, MaxBatch: 16, QueueDepth: 8}

// corpus is a set of seeded text files with their expected needle counts.
type corpus struct {
	paths []string
	texts [][]byte
	want  []int64
}

func makeCorpus(seed int64, dir string, files int) *corpus {
	c := &corpus{}
	for i := 0; i < files; i++ {
		// One random byte per letter, and one per word for its length and
		// for whether it is the needle.
		noise := randomBytes(seed*4096+int64(i), 2*jobFileBytes)
		text := make([]byte, 0, jobFileBytes+16)
		for len(text) < jobFileBytes {
			word := noise[0]
			noise = noise[1:]
			if word%16 == 0 {
				text = append(text, needle...)
			} else {
				n := 2 + int(word>>4)%8
				for _, b := range noise[:n] {
					text = append(text, 'a'+b%25)
				}
				noise = noise[n:]
			}
			text = append(text, ' ')
		}
		text = text[:jobFileBytes]
		c.paths = append(c.paths, fmt.Sprintf("%s/f%02d.txt", dir, i))
		c.texts = append(c.texts, text)
		c.want = append(c.want, int64(workloads.CountWord(text, needle)))
	}
	return c
}

func (c *corpus) write(sys *gpufs.System) error {
	for i, p := range c.paths {
		if err := sys.WriteHostFile(p, c.texts[i]); err != nil {
			return err
		}
	}
	return nil
}

// picks is the job mix: n file indices in seeded random order, every file
// equally often. Equal popularity keeps the split of work between GPUs and
// hosts from depending on the draw, which would otherwise put a few
// percent of binomial noise on every throughput figure.
func (c *corpus) picks(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i % len(c.paths)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func (c *corpus) job(file int) serve.Job {
	return serve.Job{Kind: serve.JobSearch, Path: c.paths[file], Word: needle}
}

// point is one open-loop measurement of serve_open, pooled over several
// independent runs on fresh hosts.
type point struct {
	name              string
	rate              float64 // offered jobs per virtual second; 0 = backlogged
	runs              int
	setupS            float64
	hostS, allocMB    float64
	lat               []simtime.Duration // from the scheduled arrival
	queueWait, run    []simtime.Duration
	lag               []simtime.Duration // how late the driver submitted
	span              simtime.Duration   // scheduled start to last completion, summed over runs
	horizon           simtime.Duration   // first to last scheduled arrival, summed over runs
	attempted, failed int64
	growing           bool
	stats             []serve.Stats
	raw               map[string]float64 // layer counters, summed over runs
}

// achieved is completions over the later of the arrival horizon and the
// last completion.
func (p *point) achieved() float64 {
	return float64(p.attempted-p.failed) / max(p.span, p.horizon).Seconds()
}

// Which GPU steals and which spills follows the order the server's worker
// goroutines happen to run in, so one run's throughput and median latency
// are a draw from a distribution some 5 % wide (ROADMAP item 1). Every
// point therefore pools several short independent runs, each on a fresh
// host with its own arrival order.
const (
	serveFiles    = 16
	serveTenants  = 1024
	serveArrivals = 1024 // per run
)

// servePoint measures one offered rate over the given number of runs.
func servePoint(e env, corp *corpus, name string, rate float64, runs int) (*point, error) {
	p := &point{name: name, rate: rate, runs: runs, raw: map[string]float64{}}
	arrivals := serveArrivals
	if e.smoke {
		arrivals = 128
	}
	for i := 0; i < runs; i++ {
		rng := rand.New(rand.NewSource(e.seed ^ int64(rate)<<20 ^ int64(i)<<8))
		if err := p.serveRun(e, corp, rng, arrivals); err != nil {
			return nil, fmt.Errorf("serve_open %s run %d: %w", name, i, err)
		}
	}
	if e.rec != nil {
		e.rec.add(span{name: name, id: -1, vend: simtime.Time(p.span)})
	}
	return p, nil
}

// serveRun builds a fresh host, warms the corpus into the GPU buffer
// caches, and drives one open-loop run: Poisson arrivals on virtual time,
// paced with WaitUntil and submitted with SubmitAt whether or not the
// server has kept up. The load generator is this one goroutine.
func (p *point) serveRun(e env, corp *corpus, rng *rand.Rand, arrivals int) error {
	t0 := cpuTime()
	cfg := baseConfig()
	cfg.NumGPUs = 2
	serveTune(&cfg)
	sys, err := e.newSystem(cfg)
	if err != nil {
		return err
	}
	if err := corp.write(sys); err != nil {
		return err
	}
	srv := serve.New(sys, serveConfig)
	defer srv.Drain()
	// One job per file makes every file resident on its affinity GPU.
	warm := make([]*serve.Future, serveFiles)
	for i := range warm {
		if warm[i], err = srv.Submit("warm"+strconv.Itoa(i), corp.job(i)); err != nil {
			return err
		}
	}
	for _, f := range warm {
		if r := f.Wait(); r.Err != nil {
			return fmt.Errorf("warming: %w", r.Err)
		}
	}
	p.setupS += (cpuTime() - t0).Seconds()

	type pending struct {
		fut  *serve.Future
		file int
		h    time.Duration
	}
	jobs := make([]pending, 0, arrivals)
	picks := corp.picks(rng, arrivals)
	base := srv.Now()
	at := base
	ph := beginPhase(sys)
	warmStats := srv.Stats()
	var lat []simtime.Duration
	var r rep
	err = r.measure(func() error {
		for i := 0; i < arrivals; i++ {
			if p.rate > 0 {
				at = at.Add(simtime.Duration(rng.ExpFloat64() / p.rate * 1e9))
				srv.WaitUntil(at)
				p.lag = append(p.lag, max(0, srv.Now().Sub(at)))
			}
			var h time.Duration
			if e.rec != nil {
				h = e.rec.hostNow()
			}
			fut, err := srv.SubmitAt("t"+strconv.Itoa(i%serveTenants), corp.job(picks[i]), at)
			p.attempted++
			if err != nil {
				// An open loop sheds a refused job; it counts as failed
				// and as missing any latency limit.
				p.failed++
				continue
			}
			jobs = append(jobs, pending{fut, picks[i], h})
		}
		var last simtime.Time
		for i, j := range jobs {
			res := j.fut.Wait()
			if res.Err != nil || res.Count != corp.want[j.file] {
				p.failed++
				continue
			}
			lat = append(lat, res.Done.Sub(res.Enqueued))
			p.queueWait = append(p.queueWait, res.Started.Sub(res.Enqueued))
			p.run = append(p.run, res.Done.Sub(res.Started))
			last = max(last, res.Done)
			if e.rec != nil {
				e.rec.add(
					span{name: "job", id: i, parent: p.name, vstart: res.Enqueued, vend: res.Done, hstart: j.h, hend: e.rec.hostNow()},
					span{name: "queue", id: i, parent: "job", vstart: res.Enqueued, vend: res.Started, hstart: j.h, hend: j.h},
					span{name: "run", id: i, parent: "job", vstart: res.Started, vend: res.Done, hstart: j.h, hend: j.h},
				)
			}
		}
		p.span += last.Sub(base)
		p.horizon += at.Sub(base)
		return nil
	})
	if err != nil {
		return err
	}
	p.hostS += r.hostS
	p.allocMB += r.allocMB
	raw := ph.raw()
	if err := checkWarm(p.name, raw); err != nil {
		return err
	}
	mergeRaw(p.raw, raw)
	p.stats = append(p.stats, sinceWarm(srv.Stats(), warmStats))
	// A backlog that grows shows as later arrivals waiting longer: compare
	// the last quarter's median latency with the first quarter's.
	if q := len(lat) / 4; q > 0 && p.rate > 0 {
		first := percentile(append([]simtime.Duration(nil), lat[:q]...), 50)
		lastQ := percentile(append([]simtime.Duration(nil), lat[len(lat)-q:]...), 50)
		p.growing = p.growing || lastQ > 2*first
	}
	p.lat = append(p.lat, lat...)
	return nil
}

// sinceWarm takes the warming jobs out of a host's serving counters.
func sinceWarm(st, warm serve.Stats) serve.Stats {
	for g := range st.GPUs {
		a, w := &st.GPUs[g], warm.GPUs[g]
		a.Batches -= w.Batches
		a.Launched -= w.Launched
		a.Completed -= w.Completed
		a.AffinityHits -= w.AffinityHits
		a.Stolen -= w.Stolen
		a.Spilled -= w.Spilled
	}
	return st
}

// serveLayer folds hosts' serving counters into per-layer metrics.
func serveLayer(l map[string]float64, stats []serve.Stats) {
	var batches, launched, completed, hits float64
	for _, st := range stats {
		for _, g := range st.GPUs {
			batches += float64(g.Batches)
			launched += float64(g.Launched)
			completed += float64(g.Completed)
			hits += float64(g.AffinityHits)
			l["serve.stolen"] += float64(g.Stolen)
			l["serve.spilled"] += float64(g.Spilled)
		}
		for _, t := range st.Tenants {
			l["serve.rejected"] += float64(t.Rejected)
		}
	}
	l["serve.batches"] = batches
	if batches > 0 {
		l["serve.jobs_per_launch"] = launched / batches
	}
	if completed > 0 {
		l["serve.affinity_hit_ratio"] = hits / completed
	}
}

// serveOpen: one host, 2 GPUs, serve.Server (affinity, MaxBatch 16,
// QueueDepth 8), 16 cache-resident 64 KiB files, 1024 tenants, JobSearch.
// The end-to-end metrics come from two points: the backlogged one (every
// arrival due at t=0: throughput) and r80 (latency under the knee). With
// e.full the other four rates run too, for serve.sustained_rate.
func serveOpen(e env) (*rep, error) {
	t0 := cpuTime()
	corp := makeCorpus(e.seed, "/serve", serveFiles)
	corpusS := (cpuTime() - t0).Seconds()

	backlog, err := servePoint(e, corp, "backlog", 0, 6)
	if err != nil {
		return nil, err
	}
	points := map[string]*point{}
	for _, sr := range serveRates {
		runs := 2
		switch {
		case sr.name == "r80":
			runs = 4
		case !e.full:
			continue
		}
		if points[sr.name], err = servePoint(e, corp, sr.name, sr.rate, runs); err != nil {
			return nil, err
		}
	}
	r80 := points["r80"]

	r := &rep{
		// One host's set-up: the corpus plus a system, written and warmed.
		setupS:   corpusS + (backlog.setupS+r80.setupS)/float64(backlog.runs+r80.runs),
		hostS:    backlog.hostS + r80.hostS,
		allocMB:  backlog.allocMB + r80.allocMB,
		bytes:    (backlog.attempted - backlog.failed) * jobFileBytes,
		makespan: backlog.span,
		opLat:    r80.lat,
		// File-system counters are the backlogged point's (the throughput
		// point); the serve.* metrics are read at r80 (the latency point).
		layer:     derive(backlog.raw, backlog.span),
		attempted: backlog.attempted,
		failed:    backlog.failed,
	}
	// A shed or failed job misses any latency limit: it enters the
	// percentiles as the largest possible latency.
	for i := int64(0); i < r80.failed; i++ {
		r.opLat = append(r.opLat, simtime.Duration(1<<62))
	}
	for _, p := range points {
		r.attempted += p.attempted
		r.failed += p.failed
	}
	serveLayer(r.layer, r80.stats)
	r.layer["serve.queue_wait_vms_p50"] = percentile(r80.queueWait, 50).Milliseconds()
	r.layer["serve.run_vms_p50"] = percentile(r80.run, 50).Milliseconds()
	r.layer["serve.driver_lag_vms_p99"] = percentile(r80.lag, 99).Milliseconds()
	if r40 := points["r40"]; r40 != nil {
		idle := percentile(r40.lat, 50)
		r.layer["serve.lat_idle_p50_vms"] = idle.Milliseconds()
		// The highest offered rate that keeps p99 within 3x the idle
		// median, achieves 95 % of what was offered, and leaves no growing
		// backlog.
		for _, sr := range serveRates {
			p := points[sr.name]
			if p.failed == 0 && percentile(p.lat, 99) <= 3*idle && p.achieved() >= 0.95*sr.rate && !p.growing {
				r.layer["serve.sustained_rate"] = sr.rate
			}
		}
	}
	return r, nil
}

// fleetBurst: a fleet.ControlPlane over 2 SimHostFactory hosts x 2 GPUs
// with no faults and detectors set so nothing remediates. One goroutine
// submits bursts of 256 search jobs over 32 files and waits each burst out
// (closed loop, window 256).
func fleetBurst(e env) (*rep, error) {
	const hosts, files, window = 2, 32, 256
	bursts := 16
	if e.smoke {
		bursts = 2
	}

	t0 := cpuTime()
	corp := makeCorpus(e.seed, "/fleet", files)
	var systems []*gpufs.System
	var backends []serve.Backend
	var reg *metrics.Registry
	if e.rec != nil {
		reg = metrics.New()
	}
	simHost := fleet.SimHostFactory(fleet.SimHostConfig{
		Scale:   baseConfig().Scale,
		NumGPUs: 2,
		Serve:   serveConfig,
		Metrics: reg,
		Tune:    serveTune,
		Setup: func(_, _ int, sys *gpufs.System) error {
			systems = append(systems, sys)
			if e.rec != nil {
				e.rec.tracers = append(e.rec.tracers, sys.EnableTracing(traceCapacity))
			}
			return corp.write(sys)
		},
	})
	// LatencyFactor and StallProbes are set so that neither detector can
	// fire: this workload measures routing, not remediation.
	cp, err := fleet.New(fleet.Config{LatencyFactor: 1e12, StallProbes: -1}, hosts,
		func(id, inc int) (serve.Backend, *faults.Injector, error) {
			b, inj, err := simHost(id, inc)
			backends = append(backends, b)
			return b, inj, err
		})
	if err != nil {
		return nil, err
	}
	defer cp.Drain()
	r := &rep{setupS: (cpuTime() - t0).Seconds()}

	rng := rand.New(rand.NewSource(e.seed ^ 0xf1ee7))
	type delivery struct {
		host int
		id   uint64
	}
	seen := map[delivery]bool{}
	var submitNs time.Duration
	ph := beginPhase(systems...)
	err = r.measure(func() error {
		futs := make([]*fleet.Future, window)
		for b := 0; b < bursts; b++ {
			picks := corp.picks(rng, window)
			var h0 time.Duration
			if e.rec != nil {
				h0 = e.rec.hostNow()
			}
			for i := range futs {
				t := time.Now()
				futs[i], err = cp.Submit("t"+strconv.Itoa(i), corp.job(picks[i]))
				submitNs += time.Since(t)
				if err != nil {
					return fmt.Errorf("burst %d job %d: %w", b, i, err)
				}
			}
			// Hosts keep independent virtual clocks. The client submits
			// the next burst only when the slowest host has delivered, so
			// a burst takes as long as the host that took longest over it.
			var start, end [hosts]simtime.Time
			for i, f := range futs {
				res := f.Wait()
				r.attempted++
				d := delivery{res.Host, res.ID}
				if res.Err != nil || res.Count != corp.want[picks[i]] || seen[d] || res.Rehomes != 0 {
					r.failed++
					continue
				}
				seen[d] = true
				r.opLat = append(r.opLat, res.Done.Sub(res.Enqueued))
				h := res.Host
				end[h] = max(end[h], res.Done)
				if start[h] == 0 || res.Enqueued < start[h] {
					start[h] = res.Enqueued
				}
				if e.rec != nil {
					e.rec.add(span{name: "job", id: b*window + i, parent: "burst", vstart: res.Enqueued, vend: res.Done, hstart: h0, hend: e.rec.hostNow()})
				}
			}
			var burst simtime.Duration
			for h := range start {
				burst = max(burst, end[h].Sub(start[h]))
				if e.rec != nil && end[h] > 0 {
					e.rec.add(span{name: "burst", id: -1 - h, parent: "fleet_burst", vstart: start[h], vend: end[h], hstart: h0, hend: e.rec.hostNow()})
				}
			}
			r.makespan += burst
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.bytes = (r.attempted - r.failed) * jobFileBytes
	r.layer = ph.finish(r.makespan)
	stats := make([]serve.Stats, len(backends))
	for i, b := range backends {
		stats[i] = b.Stats()
	}
	serveLayer(r.layer, stats)
	snap := cp.Snapshot()
	r.layer["fleet.submit_ns"] = float64(submitNs) / float64(r.attempted)
	r.layer["fleet.rehomes"] = float64(snap.Rebalanced)
	r.layer["fleet.events"] = float64(len(cp.Events()))

	// Oracle: exactly-once delivery and zero remediation.
	want := int64(bursts * window)
	if snap.Admitted != want || snap.Succeeded != want || snap.Failed != 0 || int64(len(seen)) != want-r.failed {
		return nil, fmt.Errorf("fleet_burst: admitted %d, succeeded %d, failed %d, distinct deliveries %d; want %d each",
			snap.Admitted, snap.Succeeded, snap.Failed, len(seen), want)
	}
	if ev := cp.Events(); len(ev) != 0 || snap.Rebalanced != 0 {
		return nil, fmt.Errorf("fleet_burst: remediation events %v, %d rehomes; want none", ev, snap.Rebalanced)
	}
	if err := checkWarm("fleet_burst", r.layer); err != nil {
		return nil, err
	}
	return r, nil
}
