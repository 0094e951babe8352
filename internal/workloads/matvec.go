package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gpufs"
	"gpufs/internal/cudart"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/memsys"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
)

// The single-precision matrix–vector product of §5.1.4: y = M·v with M too
// large for GPU (and possibly CPU) memory. The GPUfs version is a
// self-contained kernel — gmmap for the matrix, gread for the vector,
// gwrite + gfsync for the result — while the CUDA baselines hand-code the
// chunked double-buffering pipeline GPU programmers write today.

// MatVecFiles locates a generated workload.
type MatVecFiles struct {
	MatrixPath, VectorPath, OutPath string
	Rows, Cols                      int
	MatrixBytes                     int64
}

// MatVecResult is one run's outcome.
type MatVecResult struct {
	// Y is the computed product.
	Y []float32
	// Elapsed is the virtual makespan, and Throughput the matrix volume
	// over it (the metric of Figure 8).
	Elapsed    simtime.Duration
	Throughput simtime.Rate
}

// MakeMatVec writes a rows x cols float32 matrix and a cols-long vector.
// The paper fixes cols = 128K elements and varies the matrix from 280 MB
// to 11 GB.
func MakeMatVec(fs *hostfs.FS, clock *simtime.Clock, dir string, rows, cols int, seed int64) (*MatVecFiles, error) {
	mode := hostfs.ModeRead | hostfs.ModeWrite
	if err := fs.MkdirAll(dir, hostfs.ModeDir|mode); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	vec := make([]byte, cols*4)
	for i := 0; i < cols; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], math.Float32bits(rng.Float32()-0.5))
	}
	f := &MatVecFiles{
		MatrixPath:  dir + "/matrix.f32",
		VectorPath:  dir + "/vector.f32",
		OutPath:     dir + "/result.f32",
		Rows:        rows,
		Cols:        cols,
		MatrixBytes: int64(rows) * int64(cols) * 4,
	}
	if err := fs.WriteFile(clock, f.VectorPath, vec, mode); err != nil {
		return nil, err
	}

	// Stream the matrix in row batches to bound peak allocation.
	mf, err := fs.Open(clock, f.MatrixPath, hostfs.O_WRONLY|hostfs.O_CREATE|hostfs.O_TRUNC, mode)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	rowBytes := int64(cols) * 4
	batch := make([]byte, rowBytes)
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			binary.LittleEndian.PutUint32(batch[i*4:], math.Float32bits(rng.Float32()-0.5))
		}
		if _, _, err := mf.Pwrite(clock, batch, int64(r)*rowBytes); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// dotRow computes one row's inner product against the vector, both in
// little-endian float32 wire format.
func dotRow(row, vec []byte) float32 {
	var acc float32
	for i := 0; i+4 <= len(row) && i+4 <= len(vec); i += 4 {
		a := math.Float32frombits(binary.LittleEndian.Uint32(row[i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(vec[i:]))
		acc += a * b
	}
	return acc
}

// MatVecCPUReference computes y on the host (correctness oracle only; no
// timing claims).
func MatVecCPUReference(host *hostfs.FS, clock *simtime.Clock, f *MatVecFiles) ([]float32, error) {
	vec, err := host.ReadFile(clock, f.VectorPath)
	if err != nil {
		return nil, err
	}
	mf, err := host.Open(clock, f.MatrixPath, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	rowBytes := int64(f.Cols) * 4
	row := make([]byte, rowBytes)
	y := make([]float32, f.Rows)
	for r := 0; r < f.Rows; r++ {
		if _, err := mf.Pread(clock, row, int64(r)*rowBytes); err != nil {
			return nil, err
		}
		y[r] = dotRow(row, vec)
	}
	return y, nil
}

// MatVecGPUfs is the self-contained GPUfs kernel: it requires no CUDA
// host-side code at all, and no special treatment when the matrix exceeds
// GPU — or CPU — memory. Matrix pages stream through the buffer cache
// (gmmap), and the FIFO replacement policy handles the overflow (§5.1.4).
func MatVecGPUfs(sys *gpufs.System, gpuID int, f *MatVecFiles, blocks, threads int) (*MatVecResult, error) {
	res := &MatVecResult{Y: make([]float32, f.Rows)}
	rowBytes := int64(f.Cols) * 4
	ps := sys.GPU(gpuID).FS().PageSize()
	if ps%rowBytes != 0 && rowBytes%ps != 0 {
		return nil, fmt.Errorf("matvec: page size %d and row size %d misaligned", ps, rowBytes)
	}

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		vfd, err := c.Gopen(f.VectorPath, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		vec := make([]byte, rowBytes)
		if _, err := c.Gread(vfd, vec, 0); err != nil {
			return err
		}
		if err := c.Gclose(vfd); err != nil {
			return err
		}

		mfd, err := c.Gopen(f.MatrixPath, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		// The output is produced write-once; O_TRUNC makes the single
		// coalesced host open truncate it (the paper calls gftruncate
		// up front).
		ofd, err := c.Gopen(f.OutPath, gpufs.O_GWRONCE|gpufs.O_TRUNC)
		if err != nil {
			return err
		}

		// Stripe the matrix across blocks in page-sized spans so each
		// block maps whole pages.
		span := ps
		if rowBytes > ps {
			span = rowBytes
		}
		outRec := make([]byte, 4)
		for off := int64(c.Idx) * span; off < f.MatrixBytes; off += span * int64(c.Blocks) {
			spanEnd := off + span
			if spanEnd > f.MatrixBytes {
				spanEnd = f.MatrixBytes
			}
			base := off
			for base < spanEnd {
				m, err := c.Gmmap(mfd, base, spanEnd-base)
				if err != nil {
					return err
				}
				// Rows fully inside this mapping.
				firstRow := int(base / rowBytes)
				nRows := len(m.Data) / int(rowBytes)
				for r := 0; r < nRows; r++ {
					row := m.Data[int64(r)*rowBytes : int64(r+1)*rowBytes]
					y := dotRow(row, vec)
					c.Compute(float64(2 * f.Cols))
					c.TouchBytes(rowBytes)
					binary.LittleEndian.PutUint32(outRec, math.Float32bits(y))
					if _, err := c.Gwrite(ofd, outRec, int64(firstRow+r)*4); err != nil {
						m.Munmap(c.Block)
						return err
					}
					res.Y[firstRow+r] = y
				}
				if err := c.Gmunmap(m); err != nil {
					return err
				}
				if nRows == 0 {
					return fmt.Errorf("matvec: mapping made no progress at %d", base)
				}
				base += int64(nRows) * rowBytes
			}
		}

		if err := c.Gfsync(ofd); err != nil {
			return err
		}
		if err := c.Gclose(ofd); err != nil {
			return err
		}
		return c.Gclose(mfd)
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	if res.Elapsed > 0 {
		res.Throughput = simtime.Rate(float64(f.MatrixBytes) / res.Elapsed.Seconds())
	}
	return res, nil
}

// MatVecCUDA is the hand-coded double-buffering baseline. The "naïve"
// configuration of Figure 8 splits the input into four chunks whose size
// depends on the input; the "optimized" configuration uses fixed 70 MB
// chunks. Pinned staging buffers (two per configuration) are allocated at
// chunk size, so the naïve version's buffers balloon with the input and
// compete with the CPU page cache — the effect that collapses it in the
// disk-bound regime.
func MatVecCUDA(sys *gpufs.System, gpuID int, f *MatVecFiles, chunkBytes int64, nbuf, blocks, threads int) (*MatVecResult, error) {
	if nbuf < 2 {
		nbuf = 2
	}
	g := sys.GPU(gpuID)
	rt := cudart.New(sys.Host(), g.Link(), g.Device(), 0)
	defer rt.Close()

	rowBytes := int64(f.Cols) * 4
	chunkBytes -= chunkBytes % rowBytes
	if chunkBytes < rowBytes {
		chunkBytes = rowBytes
	}

	// Host staging: one pinned buffer per in-flight chunk. The paper's
	// naive version double-buffers input-dependent giant chunks; the
	// optimized version keeps 16 fixed-size chunks in flight. Either
	// way, this pinned memory competes with the OS page cache (§5.1.4).
	pinned := make([][]byte, nbuf)
	for i := range pinned {
		pinned[i] = rt.HostMalloc(chunkBytes)
	}
	defer rt.HostFree(int64(nbuf) * chunkBytes)

	// Device: one chunk buffer per in-flight chunk, the vector, and the
	// result.
	dev := make([]*memsys.Block, nbuf)
	for i := range dev {
		b, err := rt.Malloc(chunkBytes)
		if err != nil {
			return nil, err
		}
		defer b.Free()
		dev[i] = b
	}
	devVec, err := rt.Malloc(rowBytes)
	if err != nil {
		return nil, err
	}
	defer devVec.Free()
	devY, err := rt.Malloc(int64(f.Rows) * 4)
	if err != nil {
		return nil, err
	}
	defer devY.Free()

	// Load the vector.
	vf, err := sys.Host().Open(rt.Clock(), f.VectorPath, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	vecPin := rt.HostMalloc(rowBytes)
	defer rt.HostFree(rowBytes)
	if _, err := rt.Pread(vf, vecPin, 0); err != nil {
		vf.Close()
		return nil, err
	}
	vf.Close()
	if err := rt.Memcpy(devVec.Data, vecPin, pcie.HostToDevice); err != nil {
		return nil, err
	}

	mf, err := sys.Host().Open(rt.Clock(), f.MatrixPath, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer mf.Close()

	res := &MatVecResult{Y: make([]float32, f.Rows)}
	streams := make([]*cudart.Stream, nbuf)
	for i := range streams {
		streams[i] = rt.NewStream()
	}

	for ci, off := 0, int64(0); off < f.MatrixBytes; ci, off = ci+1, off+chunkBytes {
		slot := ci % nbuf
		n := chunkBytes
		if off+n > f.MatrixBytes {
			n = f.MatrixBytes - off
		}
		// Reusing the slot's pinned buffer and device buffer requires
		// its previous chunk's pipeline to have drained.
		streams[slot].Synchronize()

		if _, err := rt.Pread(mf, pinned[slot][:n], off); err != nil {
			return nil, err
		}
		if err := streams[slot].MemcpyAsync(dev[slot].Data[:n], pinned[slot][:n], pcie.HostToDevice); err != nil {
			return nil, err
		}

		firstRow := int(off / rowBytes)
		nRows := int(n / rowBytes)
		data := dev[slot].Data
		err := streams[slot].Launch(blocks, threads, func(b *gpu.Block) error {
			for r := b.Idx; r < nRows; r += b.Blocks {
				row := data[int64(r)*rowBytes : int64(r+1)*rowBytes]
				y := dotRow(row, devVec.Data)
				b.Compute(float64(2 * f.Cols))
				b.TouchBytes(rowBytes)
				binary.LittleEndian.PutUint32(devY.Data[(firstRow+r)*4:], math.Float32bits(y))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, st := range streams {
		st.Synchronize()
	}

	// Retrieve y and write the output file.
	yPin := rt.HostMalloc(int64(f.Rows) * 4)
	defer rt.HostFree(int64(f.Rows) * 4)
	if err := rt.Memcpy(yPin, devY.Data, pcie.DeviceToHost); err != nil {
		return nil, err
	}
	mode := hostfs.ModeRead | hostfs.ModeWrite
	if err := sys.Host().WriteFile(rt.Clock(), f.OutPath, yPin, mode); err != nil {
		return nil, err
	}
	for r := 0; r < f.Rows; r++ {
		res.Y[r] = math.Float32frombits(binary.LittleEndian.Uint32(yPin[r*4:]))
	}

	res.Elapsed = simtime.Duration(rt.Clock().Now())
	if res.Elapsed > 0 {
		res.Throughput = simtime.Rate(float64(f.MatrixBytes) / res.Elapsed.Seconds())
	}
	return res, nil
}
