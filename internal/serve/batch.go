package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	moved    []string // pop's tenants popped from in a round, in order
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

// take appends to out the next batch from q, for a launch thread whose
// clock reads cursor, and returns it with its issue instant t: cursor if a
// queued job is ready by then, else the earliest ready instant, to which the
// idle thread leaps. The batch is up to n of the jobs ready by t, popped
// fairly. q is not empty.
func (q *gpuQueue) take(out []*job, n int, cursor simtime.Time) ([]*job, simtime.Time) {
	if batch := q.pop(out, n, cursor); len(batch) > len(out) {
		return batch, cursor
	}
	t := simtime.Time(math.MaxInt64)
	for _, jobs := range q.byTenant {
		for _, j := range jobs {
			t = min(t, j.ready)
		}
	}
	return q.pop(out, n, t), t
}

// pop appends to out up to n of the jobs ready by t, visiting tenants
// round-robin so each scheduling round interleaves tenants rather than
// draining one at a time. A tenant popped from moves to the back of the
// rotation; a tenant with no job ready by t keeps its place, and jobs that
// are not ready stay queued for a later launch. The first round walks the
// whole rotation and each later one only the tenants the round before popped
// from, so a pop reads each tenant once, not once per job.
func (q *gpuQueue) pop(out []*job, n int, t simtime.Time) []*job {
	// Both lists are compacted in place. stay reuses q.rr's array, which
	// only the first round reads, and never overtakes that round's reads;
	// moved reuses q.moved's, and a later round reads it ahead of its writes.
	stay, walk := q.rr[:0], q.rr
	for len(walk) > 0 && len(out) < n {
		moved := q.moved[:0]
		for k, tn := range walk {
			if len(out) == n {
				stay = append(stay, walk[k:]...)
				break
			}
			jobs := q.byTenant[tn]
			i := slices.IndexFunc(jobs, func(j *job) bool { return j.ready <= t })
			if i < 0 {
				stay = append(stay, tn)
				continue
			}
			out = append(out, jobs[i])
			q.size--
			if len(jobs) == 1 {
				delete(q.byTenant, tn)
				continue
			}
			q.byTenant[tn] = slices.Delete(jobs, i, i+1)
			moved = append(moved, tn)
		}
		q.moved, walk = moved, moved
	}
	q.rr = append(stay, walk...)
	return out
}

// worker is GPU g's scheduling loop: one goroutine per device that
// repeatedly assembles a batch from the queue (stealing when its own is
// empty), runs it as a single kernel launch, completes or requeues each
// job, and sleeps when there is nothing to do. The batch is popped into a
// buffer of the worker's own, not of a queue's: a steal pops another GPU's
// queue while that GPU's worker may be running a batch of it.
func (s *Server) worker(g int) {
	defer s.wg.Done()
	buf := make([]*job, 0, s.cfg.MaxBatch)
	for {
		s.mu.Lock()
		batch, start := s.takeLocked(g, buf)
		for len(batch) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			batch, start = s.takeLocked(g, buf)
		}
		s.running[g] = append(s.running[g], batch...) // runBatch reorders batch unlocked
		s.mu.Unlock()

		retries := s.runBatch(g, batch, start)
		clear(batch)

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

// takeLocked assembles GPU g's next batch into buf and returns it with its
// issue time. It pops from g's own queue, or — when that is empty — steals
// from the longest queue of a GPU over its share (overShareLocked), so an
// idle device helps an overwhelmed one without breaking locality under
// balanced load. Either way the batch is issued at t = max(g's cursor, the
// earliest ready job of that queue) and holds up to MaxBatch of the jobs
// ready by t, popped fairly; later arrivals wait for a later launch, so no
// job of a batch waits for another to arrive. It returns an empty batch
// when there is nothing to take.
func (s *Server) takeLocked(g int, buf []*job) ([]*job, simtime.Time) {
	if s.handoff {
		// A handoff freeze is flushing the queues: anything still queued
		// (including retries requeued by in-flight batches) belongs to the
		// flush, not to one more launch. Without this gate a worker waking
		// between a retry's requeue and the drain loop's next pop could
		// re-execute a job the freeze is about to hand off — the job would
		// be dispatched here AND appear queued in a checkpoint image.
		return nil, 0
	}
	from := g
	if s.queues[g].size == 0 {
		from = -1
		longest := 0
		for i, q := range s.queues {
			if i != g && q.size > longest && s.overShareLocked(i) {
				from, longest = i, q.size
			}
		}
		if from < 0 {
			return nil, 0
		}
	}
	q := s.queues[from]
	batch, start := q.take(buf[:0], s.cfg.MaxBatch, s.cursors[g])
	s.met.noteQueueDepth(from, q.size)
	if from != g {
		s.gstats[g].Stolen += int64(len(batch))
	}
	return batch, start
}

// runBatch executes one scheduling round on GPU g: fail jobs whose
// deadline already passed, coalesce the rest into a single kernel launch
// whose blocks stride over the jobs, recover from device faults by
// restarting the GPU, and sort each job into completed vs retry. It
// returns the jobs to requeue.
//
// The launch is asynchronous in virtual time. It is issued at start, which
// takeLocked chose: the GPU's launch thread is free (cursors[g]) and every
// job of the batch is ready — has arrived, and, for a retry, has been seen to
// fail — and the thread is free again one launch overhead later: what
// earlier kernels still have running is the device's to arbitrate
// (gpu.Device.Launch), not a reason to wait here. Results are per kernel —
// every job of the batch is Done when the kernel ends — which is what lets a
// faulted launch requeue whole.
func (s *Server) runBatch(g int, batch []*job, start simtime.Time) (retries []*job) {
	s.mu.Lock()
	batchID := s.batchSeq
	s.batchSeq++
	s.mu.Unlock()

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
	s.mu.Lock()
	// The round's blocks fan out across the GPU's RPC ring shards by the
	// blocks' stable lane hash; record how wide a dispatch spreads. Blocks
	// 0..blocks-1 reach the same shards in every launch, so only a launch
	// wider than any before can reach more.
	if blocks > s.widest[g] {
		s.widest[g] = blocks
		lanes := make(map[int]bool, blocks)
		for blockIdx := 0; blockIdx < blocks; blockIdx++ {
			lanes[gpu.FS().Client().ShardFor(blockIdx)] = true
		}
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
