package serve

import "hash/fnv"

// routeLocked picks the GPU queue for a freshly admitted job.
//
// Under PlaceAffinity the job goes to the GPU whose buffer cache holds
// the most pages of its file, ties to the least loaded; a file no GPU
// holds goes to its stable hash home, so repeated jobs over the same cold
// file all warm the SAME device and affinity emerges. That GPU keeps the
// job unless it is busy and over its bounded share (overShareLocked): the
// fleet's rule for hosts (internal/fleet/scheduler.go), one level down.
//
// Under PlaceRoundRobin jobs rotate across GPUs in admission order.
func (s *Server) routeLocked(j *job) int {
	n := len(s.queues)
	if n == 1 {
		return 0
	}
	if s.cfg.Policy == PlaceRoundRobin {
		g := s.rr % n
		s.rr++
		return g
	}

	best, bestPages := -1, int64(0)
	for g := 0; g < n; g++ {
		if p := s.sys.GPU(g).ResidentPages(j.spec.Path); p > bestPages || p > 0 && p == bestPages && s.loadLocked(g) < s.loadLocked(best) {
			best, bestPages = g, p
		}
	}
	if best < 0 {
		best = pathHome(j.spec.Path, n)
	}
	if s.overShareLocked(best) {
		spill := best
		for g := 0; g < n; g++ {
			if s.loadLocked(g) < s.loadLocked(spill) {
				spill = g
			}
		}
		if spill != best {
			s.gstats[best].Spilled++
			best = spill
		}
	}
	return best
}

// loadLocked is GPU g's load: its queued jobs and its running batch.
func (s *Server) loadLocked(g int) int { return s.queues[g].size + len(s.running[g]) }

// hostLoadLocked is the host's load: every GPU's queued and running jobs.
func (s *Server) hostLoadLocked() (n int) {
	for g := range s.queues {
		n += s.loadLocked(g)
	}
	return n
}

// overShareLocked reports whether GPU g is busy (4×MaxBatch jobs or more)
// and over its bounded share of the host's jobs: only such a GPU spills a
// job it would keep, or is stolen from.
func (s *Server) overShareLocked(g int) bool {
	load := s.loadLocked(g)
	return load >= 4*s.cfg.MaxBatch && OverShare(load, s.hostLoadLocked(), 1, len(s.queues))
}

// OverShare is the one placement bound, for a host's GPUs and the fleet's
// hosts: whether a member carrying load of total outstanding jobs is at or
// over ⌈(1+ε)·(total+1)·units/totalUnits⌉, units being its capacity and
// totalUnits everyone's (consistent hashing with bounded loads, Mirrokni,
// Thorup & Zadimoghaddam).
func OverShare(load, total, units, totalUnits int) bool {
	const shareNum, shareDen = 11, 10 // 1+ε, ε = 1/10
	return shareDen*totalUnits*load >= shareNum*(total+1)*units
}

// PathHash is the one hash of cold-file placement: a host's pathHome and
// the fleet's home host (internal/fleet) read the same index.
func PathHash(path string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(path))
	return h.Sum32()
}

// pathHome is a cold file's stable GPU among a host's n: it depends on the
// path alone, not on submission order or server state.
func pathHome(path string, n int) int { return int(PathHash(path) % uint32(n)) }
