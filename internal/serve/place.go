package serve

import "hash/fnv"

// routeLocked picks the GPU queue for a freshly admitted job.
//
// Under PlaceAffinity the job goes to the GPU whose buffer cache holds
// the most pages of its file; a file no GPU holds goes to its stable
// hash home, so repeated jobs over the same cold file all warm the SAME
// device and affinity emerges. When the chosen queue is saturated
// (≥ StealThreshold) the job spills to the least-loaded GPU instead —
// cache locality is a preference, not a bottleneck.
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
		if p := s.sys.GPU(g).ResidentPages(j.spec.Path); p > bestPages {
			best, bestPages = g, p
		}
	}
	if best < 0 {
		best = pathHome(j.spec.Path, n)
	}
	if s.queues[best].size+len(s.running[best]) >= s.cfg.StealThreshold {
		spill := best
		load := s.queues[best].size + len(s.running[best])
		for g := 0; g < n; g++ {
			if l := s.queues[g].size + len(s.running[g]); l < load {
				spill, load = g, l
			}
		}
		if spill != best {
			s.gstats[best].Spilled++
			best = spill
		}
	}
	return best
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
