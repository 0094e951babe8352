package serve

import (
	"errors"
	"fmt"

	"gpufs"
	"gpufs/internal/hostfs"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// gpuQueue is one GPU's pending work, organized per tenant so the batcher
// can pop fairly (round-robin across tenants) instead of letting one
// chatty tenant monopolize a device.
type gpuQueue struct {
	byTenant map[string][]*job
	rr       []string // tenant rotation order
	size     int
}

func newGPUQueue() *gpuQueue {
	return &gpuQueue{byTenant: make(map[string][]*job)}
}

func (q *gpuQueue) push(j *job) {
	if _, ok := q.byTenant[j.tenant]; !ok {
		q.rr = append(q.rr, j.tenant)
	}
	q.byTenant[j.tenant] = append(q.byTenant[j.tenant], j)
	q.size++
}

// pop removes up to n jobs, visiting tenants round-robin so each
// scheduling round interleaves tenants rather than draining one at a time.
func (q *gpuQueue) pop(n int) []*job {
	var out []*job
	for len(out) < n && q.size > 0 {
		tn := q.rr[0]
		jobs := q.byTenant[tn]
		out = append(out, jobs[0])
		q.size--
		if len(jobs) == 1 {
			delete(q.byTenant, tn)
			q.rr = q.rr[1:]
		} else {
			q.byTenant[tn] = jobs[1:]
			// Rotate so the next pop starts at the following tenant.
			q.rr = append(q.rr[1:], tn)
		}
	}
	return out
}

// worker is GPU g's scheduling loop: one goroutine per device that
// repeatedly assembles a batch from the queue (stealing when its own is
// empty), runs it as a single kernel launch, completes or requeues each
// job, and sleeps when there is nothing to do.
func (s *Server) worker(g int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		batch := s.takeLocked(g)
		for batch == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			batch = s.takeLocked(g)
		}
		s.running[g] = append(s.running[g], batch...) // runBatch reorders batch unlocked
		s.mu.Unlock()

		retries := s.runBatch(g, batch)

		s.mu.Lock()
		// Requeue retries and release the in-flight count in one critical
		// section so Drain never observes a moment where a retrying job
		// is neither queued nor in flight.
		for _, j := range retries {
			s.queues[g].push(j)
			s.gstats[g].Requeued++
		}
		if len(retries) > 0 {
			s.met.noteQueueDepth(g, s.queues[g].size)
		}
		clear(s.running[g])
		s.running[g] = s.running[g][:0]
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// takeLocked assembles GPU g's next batch: up to MaxBatch jobs popped
// fairly from its own queue, or — when that is empty — stolen from the
// longest queue of a GPU over its share (overShareLocked), so an idle device
// helps an overwhelmed one without breaking locality under balanced load.
// Returns nil when there is nothing to take.
func (s *Server) takeLocked(g int) []*job {
	if s.handoff {
		// A handoff freeze is flushing the queues: anything still queued
		// (including retries requeued by in-flight batches) belongs to the
		// flush, not to one more launch. Without this gate a worker waking
		// between a retry's requeue and the drain loop's next pop could
		// re-execute a job the freeze is about to hand off — the job would
		// be dispatched here AND appear queued in a checkpoint image.
		return nil
	}
	if q := s.queues[g]; q.size > 0 {
		batch := q.pop(s.cfg.MaxBatch)
		s.met.noteQueueDepth(g, q.size)
		return batch
	}
	victim, longest := -1, 0
	for i, q := range s.queues {
		if i != g && q.size > longest && s.overShareLocked(i) {
			victim, longest = i, q.size
		}
	}
	if victim < 0 {
		return nil
	}
	batch := s.queues[victim].pop(s.cfg.MaxBatch)
	s.met.noteQueueDepth(victim, s.queues[victim].size)
	s.gstats[g].Stolen += int64(len(batch))
	return batch
}

// runBatch executes one scheduling round on GPU g: fail jobs whose
// deadline already passed, coalesce the rest into a single kernel launch
// whose blocks stride over the jobs, recover from device faults by
// restarting the GPU, and sort each job into completed vs retry. It
// returns the jobs to requeue.
//
// The launch is asynchronous in virtual time. It is issued as soon as the
// GPU's launch thread is free (cursors[g]) and every job of the batch is
// ready — has arrived, and, for a retry, has been seen to fail — and the
// thread is free again one launch overhead later: what earlier kernels still
// have running is the device's to arbitrate (gpu.Device.Launch), not a
// reason to wait here. Results are per kernel — every job of the batch is
// Done when the kernel ends — which is what lets a faulted launch requeue
// whole.
func (s *Server) runBatch(g int, batch []*job) (retries []*job) {
	s.mu.Lock()
	start := s.cursors[g]
	batchID := s.batchSeq
	s.batchSeq++
	s.mu.Unlock()
	for _, j := range batch {
		if j.ready > start {
			start = j.ready
		}
	}

	// Deadline triage before spending GPU time.
	run := batch[:0:len(batch)]
	for _, j := range batch {
		if j.deadline != 0 && start > j.deadline {
			s.completeJob(j, g, batchID, start, start, fmt.Errorf("%w: queued past deadline (last error: %v)",
				ErrDeadlineExceeded, j.lastErr))
			continue
		}
		run = append(run, j)
	}
	if len(run) == 0 {
		return nil
	}

	gpu := s.sys.GPU(g)
	// Affinity accounting happens at assembly time, before the launch
	// itself populates the cache; every job in the launch consumes one
	// attempt whether or not the device survives it.
	for _, j := range run {
		j.hit = gpu.ResidentPages(j.spec.Path) > 0
		j.attempts++
	}

	if s.tr.Enabled() {
		s.tr.Record(trace.Event{
			GPU: g, Block: trace.LaunchQueue, Op: trace.OpBatch, Path: fmt.Sprintf("batch-%d", batchID),
			Bytes: int64(len(run)), Start: start, End: start,
		})
	}
	if m := s.met; m != nil {
		m.batchJobs[g].Observe(int64(len(run)))
	}

	blocks := len(run)
	if blocks > maxBlocks {
		blocks = maxBlocks
	}
	// The round's blocks fan out across the GPU's RPC ring shards by the
	// blocks' stable lane hash; record how wide this dispatch spreads.
	lanes := make(map[int]bool, blocks)
	for blockIdx := 0; blockIdx < blocks; blockIdx++ {
		lanes[gpu.FS().Client().ShardFor(blockIdx)] = true
	}
	s.mu.Lock()
	if len(lanes) > s.gstats[g].ShardLanes {
		s.gstats[g].ShardLanes = len(lanes)
	}
	// Issuing costs the launch thread one overhead whether or not the
	// device survives the kernel; then it is free for the next batch.
	s.cursors[g] = start.Add(s.launchGap)
	s.mu.Unlock()
	end, lerr := gpu.Launch(start, blocks, threadsPerBlock, func(c *gpufs.BlockCtx) error {
		for ji := c.Idx; ji < len(run); ji += blocks {
			s.execJob(c, run[ji])
		}
		return nil
	})
	if lerr != nil {
		// The device faulted (e.g. injected kernel fault): its buffer
		// cache and open-file state are gone. Restart it and retry the
		// whole batch within each job's budget.
		gpu.Restart()
		s.mu.Lock()
		s.gstats[g].Restarts++
		s.mu.Unlock()
		if m := s.met; m != nil {
			m.restarts[g].Inc()
		}
		for _, j := range run {
			j.lastErr, j.ready = lerr, end
			if int(j.attempts) >= s.cfg.MaxAttempts {
				s.completeJob(j, g, batchID, start, end,
					fmt.Errorf("serve: gpu %d faulted %d times running job: %w", g, j.attempts, lerr))
			} else {
				retries = append(retries, j)
			}
		}
		return retries
	}

	if s.tr.Enabled() {
		s.tr.Record(trace.Event{
			GPU: g, Block: trace.LaunchQueue, Op: trace.OpDispatch, Path: fmt.Sprintf("batch-%d", batchID),
			Bytes: int64(len(run)), Start: start, End: start.Add(s.launchGap),
		})
	}

	s.mu.Lock()
	s.gstats[g].Batches++
	s.gstats[g].Launched += int64(len(run))
	if len(run) > s.gstats[g].MaxBatch {
		s.gstats[g].MaxBatch = len(run)
	}
	s.mu.Unlock()
	s.advanceNow(end)

	for _, j := range run {
		switch {
		case j.deadline != 0 && end > j.deadline:
			// A late result is a dead result, even a correct one.
			s.completeJob(j, g, batchID, start, end,
				fmt.Errorf("%w (finished %v late, last error: %v)",
					ErrDeadlineExceeded, end.Sub(j.deadline), j.err))
		case j.err == nil:
			s.completeJob(j, g, batchID, start, end, nil)
		case retryable(j.err) && int(j.attempts) < s.cfg.MaxAttempts:
			j.lastErr, j.ready = j.err, end
			retries = append(retries, j)
		default:
			s.completeJob(j, g, batchID, start, end,
				fmt.Errorf("serve: job failed after %d attempt(s): %w", j.attempts, j.err))
		}
	}
	return retries
}

// retryable classifies a job error as transient. EAGAIN from the host
// daemon is always worth retrying; EIO may be a per-call injected fault
// (transient) or a persistent bad sector — retrying within the attempt
// budget handles the first and converts the second into an explicit
// failure.
func retryable(err error) bool {
	return rpc.Retryable(err) || errors.Is(err, hostfs.ErrIO)
}

// completeJob delivers a job's result exactly once, releases the tenant's
// admission slot, and folds the outcome into the stats.
func (s *Server) completeJob(j *job, g int, batchID int64, started, done simtime.Time, err error) {
	res := Result{
		Tenant:      j.tenant,
		Job:         j.spec,
		ID:          j.id,
		Count:       j.count,
		Output:      j.output,
		Err:         err,
		GPU:         g,
		Batch:       batchID,
		Attempts:    int(j.attempts),
		Enqueued:    j.arrival,
		Started:     started,
		Done:        done,
		AffinityHit: j.hit,
	}
	if err != nil {
		res.Count, res.Output = 0, nil
	}

	s.mu.Lock()
	j.completed = true
	tn := s.tenants[j.tenant]
	tn.open--
	if errors.Is(err, ErrHandedOff) {
		// The job never launched here and will run elsewhere: a routing
		// outcome, not a failure.
		tn.stats.HandedOff++
		s.gstats[g].HandedOff++
	} else if err != nil {
		tn.stats.Failed++
		s.gstats[g].Failed++
	} else {
		tn.stats.Completed++
		s.gstats[g].Completed++
		if j.hit {
			s.gstats[g].AffinityHits++
		}
	}
	lat := done.Sub(j.arrival)
	if !errors.Is(err, ErrHandedOff) {
		// Handed-off jobs never ran here: their queue-only dwell time
		// would pollute the service estimate and the latency series.
		s.lat = append(s.lat, lat)
		// EWMA of per-job service time feeds the overload retry-after hint.
		s.svcEst = (s.svcEst*7 + lat) / 8
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	if m := s.met; m != nil && !errors.Is(err, ErrHandedOff) {
		m.jobLatency[g].ObserveDuration(lat)
		if errors.Is(err, ErrDeadlineExceeded) {
			m.deadlineMiss[g].Inc()
		}
	}

	j.fut.resolve(res)
}
