package workloads

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"gpufs"
	"gpufs/internal/cudart"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
)

// Microbenchmark kernels of §5.1: sequential read (Figures 4 and 5), random
// read (Figure 6), and in-cache read with lock-free versus locked buffer
// cache traversal (Figure 7), plus their non-GPUfs baselines.

// MicroResult is a microbenchmark outcome.
type MicroResult struct {
	// Elapsed is the virtual makespan and Bytes the payload volume;
	// Throughput = Bytes / Elapsed.
	Elapsed    simtime.Duration
	Bytes      int64
	Throughput simtime.Rate
	// UniquePages is the number of distinct buffer-cache pages faulted
	// (Figure 6's second series).
	UniquePages int64
}

func finishMicro(res *MicroResult) {
	if res.Elapsed > 0 {
		res.Throughput = simtime.Rate(float64(res.Bytes) / res.Elapsed.Seconds())
	}
}

// MakeDataFile writes size bytes of deterministic data at path.
func MakeDataFile(fs *hostfs.FS, clock *simtime.Clock, path string, size int64, seed int64) error {
	mode := hostfs.ModeRead | hostfs.ModeWrite
	if err := fs.MkdirAll(dirname(path), hostfs.ModeDir|mode); err != nil {
		return err
	}
	f, err := fs.Open(clock, path, hostfs.O_WRONLY|hostfs.O_CREATE|hostfs.O_TRUNC, mode)
	if err != nil {
		return err
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(seed))
	const batch = 1 << 20
	buf := make([]byte, batch)
	for off := int64(0); off < size; off += batch {
		n := int64(batch)
		if off+n > size {
			n = size - off
		}
		for i := int64(0); i < n; i += 8 {
			v := rng.Uint64()
			for j := int64(0); j < 8 && i+j < n; j++ {
				buf[i+j] = byte(v >> (8 * uint(j)))
			}
		}
		if _, _, err := f.Pwrite(clock, buf[:n], off); err != nil {
			return err
		}
	}
	return nil
}

func dirname(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

// SeqReadGPUfs is Figure 4's "GPU File I/O" kernel — 16 lines of GPU code
// in the paper: each threadblock maps the pages of a contiguous file range
// one page at a time (gmmap/gmunmap) until its share is mapped, then closes
// the file and exits. The data is not touched; the cost measured is moving
// file content into the GPU buffer cache. Run ahead of a cache-hit kernel, it
// is the warming pass of §5.1.3's cross-kernel data reuse.
func SeqReadGPUfs(sys *gpufs.System, gpuID int, path string, fileBytes int64, blocks, threads int) (*MicroResult, error) {
	res := &MicroResult{Bytes: fileBytes}
	perBlock := (fileBytes + int64(blocks) - 1) / int64(blocks)
	ps := sys.GPU(gpuID).FS().PageSize()
	perBlock = (perBlock + ps - 1) / ps * ps

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		base := int64(c.Idx) * perBlock
		for off := base; off < base+perBlock && off < fileBytes; off += ps {
			want := ps
			if off+want > fileBytes {
				want = fileBytes - off
			}
			m, err := c.Gmmap(fd, off, want)
			if err != nil {
				return err
			}
			if err := c.Gmunmap(m); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	res.UniquePages = sys.GPU(gpuID).FS().Cache().Allocs()
	finishMicro(res)
	return res, nil
}

// SeqReadCUDAPipeline is Figure 4's hand-optimized baseline: the CPU preads
// each chunk into pinned memory and enqueues an asynchronous DMA, so file
// access latency overlaps the PCIe transfer.
func SeqReadCUDAPipeline(sys *gpufs.System, gpuID int, path string, fileBytes, chunkBytes int64) (*MicroResult, error) {
	g := sys.GPU(gpuID)
	rt := cudart.New(sys.Host(), g.Link(), g.Device(), 0)
	defer rt.Close()

	const nbuf = 4
	pinned := make([][]byte, nbuf)
	for i := range pinned {
		pinned[i] = rt.HostMalloc(chunkBytes)
	}
	defer rt.HostFree(int64(nbuf) * chunkBytes)
	dev, err := rt.Malloc(chunkBytes * nbuf)
	if err != nil {
		return nil, err
	}
	defer dev.Free()

	f, err := sys.Host().Open(rt.Clock(), path, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	streams := make([]*cudart.Stream, nbuf)
	for i := range streams {
		streams[i] = rt.NewStream()
	}
	for ci, off := 0, int64(0); off < fileBytes; ci, off = ci+1, off+chunkBytes {
		slot := ci % nbuf
		n := chunkBytes
		if off+n > fileBytes {
			n = fileBytes - off
		}
		streams[slot].Synchronize() // pinned buffer reuse
		if _, err := rt.Pread(f, pinned[slot][:n], off); err != nil {
			return nil, err
		}
		dst := dev.Data[int64(slot)*chunkBytes : int64(slot)*chunkBytes+n]
		if err := streams[slot].MemcpyAsync(dst, pinned[slot][:n], pcie.HostToDevice); err != nil {
			return nil, err
		}
	}
	for _, s := range streams {
		s.Synchronize()
	}

	res := &MicroResult{Bytes: fileBytes, Elapsed: simtime.Duration(rt.Clock().Now())}
	finishMicro(res)
	return res, nil
}

// SeqReadWholeFile is Figure 4's "whole file transfer" baseline: one pread
// of the entire file, then one synchronous cudaMemcpy — the common GPU
// practice of maximizing transfer size, which in fact loses to chunked
// pipelining because nothing overlaps.
func SeqReadWholeFile(sys *gpufs.System, gpuID int, path string, fileBytes int64) (*MicroResult, error) {
	g := sys.GPU(gpuID)
	rt := cudart.New(sys.Host(), g.Link(), g.Device(), 0)
	defer rt.Close()

	pinned := rt.HostMalloc(fileBytes)
	defer rt.HostFree(fileBytes)
	dev, err := rt.Malloc(fileBytes)
	if err != nil {
		return nil, err
	}
	defer dev.Free()

	f, err := sys.Host().Open(rt.Clock(), path, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := rt.Pread(f, pinned, 0); err != nil {
		return nil, err
	}
	if err := rt.Memcpy(dev.Data, pinned, pcie.HostToDevice); err != nil {
		return nil, err
	}

	res := &MicroResult{Bytes: fileBytes, Elapsed: simtime.Duration(rt.Clock().Now())}
	finishMicro(res)
	return res, nil
}

// RandReadGPUfs is Figure 6's kernel: each of the blocks reads readsPerBlock
// blocks of readBytes from random offsets of the file via gread into on-die
// scratchpad memory. gread is not constrained to one cache page, making it
// the natural call for random access (§5.1.2).
func RandReadGPUfs(sys *gpufs.System, gpuID int, path string, fileBytes int64, blocks, threads, readsPerBlock int, readBytes int64) (*MicroResult, error) {
	res := &MicroResult{Bytes: int64(blocks) * int64(readsPerBlock) * readBytes}

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		if int64(len(c.Scratch)) < readBytes {
			return fmt.Errorf("randread: scratchpad %d < read size %d", len(c.Scratch), readBytes)
		}
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		span := fileBytes - readBytes
		for i := 0; i < readsPerBlock; i++ {
			off := c.Rand.Int63n(span/readBytes) * readBytes
			if _, err := c.Gread(fd, c.Scratch[:readBytes], off); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	res.UniquePages = sys.GPU(gpuID).FS().Cache().Allocs()
	finishMicro(res)
	return res, nil
}

// StrideReadGPUfs reads readBytes from the head of every stridePages-th
// page of each block's contiguous file range — a fixed-stride pattern that
// a pattern detector should recognize (and speculate along) while a fixed
// sequential window would mostly fetch the skipped pages for nothing.
func StrideReadGPUfs(sys *gpufs.System, gpuID int, path string, fileBytes int64, blocks, threads int, stridePages, readBytes int64) (*MicroResult, error) {
	res := &MicroResult{}
	ps := sys.GPU(gpuID).FS().PageSize()
	perBlock := (fileBytes + int64(blocks) - 1) / int64(blocks)
	perBlock = (perBlock + ps - 1) / ps * ps
	var bytes atomic.Int64

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		if int64(len(c.Scratch)) < readBytes {
			return fmt.Errorf("strideread: scratchpad %d < read size %d", len(c.Scratch), readBytes)
		}
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		base := int64(c.Idx) * perBlock
		for off := base; off < base+perBlock && off < fileBytes; off += ps * stridePages {
			want := readBytes
			if off+want > fileBytes {
				want = fileBytes - off
			}
			n, err := c.Gread(fd, c.Scratch[:want], off)
			if err != nil {
				return err
			}
			bytes.Add(int64(n))
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	res.Bytes = bytes.Load()
	res.Elapsed = simtime.Duration(end)
	res.UniquePages = sys.GPU(gpuID).FS().Cache().Allocs()
	finishMicro(res)
	return res, nil
}

// CacheHitGPUfs is Figure 7's measurement kernel: with the file fully
// resident in the GPU buffer cache (warm it with SeqReadGPUfs), each block
// greads perBlockBytes in chunkBytes pieces from randomized page-aligned
// offsets into scratchpad memory — the access pattern of tiled linear
// algebra kernels. No PCI transfers occur; the cost is buffer-cache lookup
// plus the copy.
func CacheHitGPUfs(sys *gpufs.System, gpuID int, path string, fileBytes int64, blocks, threads int, perBlockBytes, chunkBytes int64) (*MicroResult, error) {
	res := &MicroResult{Bytes: int64(blocks) * perBlockBytes}

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		nChunks := fileBytes / chunkBytes
		for done := int64(0); done < perBlockBytes; done += chunkBytes {
			off := c.Rand.Int63n(nChunks) * chunkBytes
			if _, err := c.Gread(fd, c.Scratch[:chunkBytes], off); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	finishMicro(res)
	return res, nil
}

// CacheHitRaw is Figure 7's baseline: the identical access pattern reading
// directly from a device-memory buffer, without the GPUfs API.
func CacheHitRaw(sys *gpufs.System, gpuID int, fileBytes int64, blocks, threads int, perBlockBytes, chunkBytes int64) (*MicroResult, error) {
	g := sys.GPU(gpuID)
	dev, err := g.Device().Mem.Alloc(fileBytes, 256)
	if err != nil {
		return nil, err
	}
	defer dev.Free()

	res := &MicroResult{Bytes: int64(blocks) * perBlockBytes}
	end, err := g.Device().Launch(0, blocks, threads, func(b *gpu.Block) error {
		nChunks := fileBytes / chunkBytes
		for done := int64(0); done < perBlockBytes; done += chunkBytes {
			off := b.Rand.Int63n(nChunks) * chunkBytes
			b.CopyBytes(b.Scratch[:chunkBytes], dev.Data[off:off+chunkBytes])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	finishMicro(res)
	return res, nil
}

// SeqReadGPUfsGread is a gread-based sequential reader: each block streams
// its contiguous stripe of the file in chunkBytes pieces through gread
// into block-local memory. Unlike the gmmap kernel of Figure 4 it copies
// the data, which is what lets GPU-side read-ahead (§3.3) overlap fetches
// with the copies — the ablation benchmark compares the two settings.
func SeqReadGPUfsGread(sys *gpufs.System, gpuID int, path string, fileBytes int64, blocks, threads int, chunkBytes int64) (*MicroResult, error) {
	res := &MicroResult{Bytes: fileBytes}
	perBlock := (fileBytes + int64(blocks) - 1) / int64(blocks)
	perBlock = (perBlock + chunkBytes - 1) / chunkBytes * chunkBytes

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, chunkBytes)
		base := int64(c.Idx) * perBlock
		for off := base; off < base+perBlock && off < fileBytes; off += chunkBytes {
			if _, err := c.Gread(fd, buf, off); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	finishMicro(res)
	return res, nil
}

// ReopenStorm opens, reads a little from, and closes each of the given
// files once per block — the gopen/gclose-heavy pattern of the grep
// workload (§5.2.2), used by the ablation benchmark to price the closed
// file table's fast-reopen path.
func ReopenStorm(sys *gpufs.System, gpuID int, files []string, blocks, threads, rounds int) (*MicroResult, error) {
	res := &MicroResult{}
	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		buf := make([]byte, 4096)
		for r := 0; r < rounds; r++ {
			for fi := c.Idx; fi < len(files); fi += c.Blocks {
				fd, err := c.Gopen(files[fi], gpufs.O_RDONLY)
				if err != nil {
					return err
				}
				if _, err := c.Gread(fd, buf, 0); err != nil {
					return err
				}
				if err := c.Gclose(fd); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	return res, nil
}
