package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"gpufs"
	"gpufs/internal/simtime"
)

// The five file workloads: kernels written against the public BlockCtx
// API, every read checksummed against the host file, every write checked
// against a shadow copy after the final Gfsync.
//
// Sizes are calibrated, shapes are not: every kernel keeps each block's
// host run time well under the Go scheduler's 10 ms preemption slice, so
// that at GOMAXPROCS(1) blocks book virtual resources in one fixed order
// and the virtual clock repeats exactly (see README, "Why GOMAXPROCS(1)").

const blockThreads = 256

// checkRead counts a byte mismatch as one failed operation.
func checkRead(b *blockLog, got, want []byte) {
	if !bytes.Equal(got, want) {
		b.failed++
	}
}

// seqCold: 28 blocks stream a file once in page-sized Greads with 32 KiB
// pages. GPU buffer cache empty and larger than the file, host page cache
// warm.
func seqCold(e env) (*rep, error) {
	const (
		pageSize = 32 << 10
		blocks   = 28
		path     = "/bench/seq.bin"
	)
	fileBytes := int64(64 << 20) // BENCH_6's Figure 4 file
	if e.smoke {
		fileBytes = 4 << 20
	}

	t0 := cpuTime()
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.PageSize = pageSize
	cfg.BufferCacheBytes = fileBytes + 64*pageSize
	cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
	cfg.CPURAMBytes = max(cfg.CPURAMBytes, 4*fileBytes)
	sys, err := e.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	data := randomBytes(e.seed, fileBytes)
	if err := sys.WriteHostFile(path, data); err != nil {
		return nil, err
	}
	sys.ResetTime()
	r := &rep{setupS: (cpuTime() - t0).Seconds(), bytes: fileBytes}

	perBlock := (fileBytes/blocks + pageSize - 1) / pageSize * pageSize
	klog := &kernelLog{rec: e.rec}
	ph := beginPhase(sys)
	err = r.measure(func() error {
		end, err := klog.launch(sys.GPU(0), "seq_cold", 0, blocks, blockThreads, func(c *gpufs.BlockCtx, b *blockLog) error {
			fd, err := b.gopen(c, path, gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			buf := c.Scratch[:pageSize]
			base := int64(c.Idx) * perBlock
			for off := base; off < base+perBlock && off < fileBytes; off += pageSize {
				n, err := b.gread(c, fd, buf, off, true)
				if err != nil {
					return err
				}
				checkRead(b, buf[:n], data[off:min(off+pageSize, fileBytes)])
			}
			return b.gclose(c, fd)
		})
		r.makespan = simtime.Duration(end)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer = ph.finish(r.makespan)
	klog.fold(r)
	r.attempted = int64(len(r.opLat))
	if err := checkWarm("seq_cold", r.layer); err != nil {
		return nil, err
	}
	return r, nil
}

// randOp is one pre-generated rand_evict operation.
type randOp struct {
	page  int64
	write bool
}

// randEvict: 56 blocks issue 32 KiB ops at seeded random offsets of a file
// four times the buffer cache; 80 % Gread, 20 % Gwrite inside the block's
// own 1/56 slice, one Gfsync per block at the end.
func randEvict(e env) (*rep, error) {
	const (
		pageSize = 32 << 10
		blocks   = 56
		path     = "/bench/rand.bin"
	)
	cacheBytes, opsPerBlock := int64(16<<20), 96
	if e.smoke {
		cacheBytes, opsPerBlock = 4<<20, 12
	}
	fileBytes := 4 * cacheBytes
	pages := fileBytes / pageSize
	slice := pages / blocks // pages in a block's private write slice

	t0 := cpuTime()
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.PageSize = pageSize
	cfg.BufferCacheBytes = cacheBytes
	cfg.GPUMemBytes = cacheBytes + 1<<20
	cfg.CPURAMBytes = max(cfg.CPURAMBytes, 4*fileBytes)
	sys, err := e.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	data := randomBytes(e.seed, fileBytes)
	if err := sys.WriteHostFile(path, data); err != nil {
		return nil, err
	}

	// The op lists, and with them the shadow file: a written page holds
	// the complement of its original bytes, so a page reads as exactly one
	// of two known values whatever the interleaving.
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	ops := make([][]randOp, blocks)
	shadow := append([]byte(nil), data...)
	written := make([]bool, pages)
	var wrBytes int64
	for b := range ops {
		ops[b] = make([]randOp, opsPerBlock)
		for i := range ops[b] {
			if rng.Intn(5) == 0 {
				p := int64(b)*slice + rng.Int63n(slice)
				ops[b][i] = randOp{page: p, write: true}
				if !written[p] {
					written[p] = true
					for j := p * pageSize; j < (p+1)*pageSize; j++ {
						shadow[j] = ^data[j]
					}
				}
				wrBytes += pageSize
			} else {
				ops[b][i] = randOp{page: rng.Int63n(pages)}
			}
		}
	}
	sys.ResetTime()
	r := &rep{setupS: (cpuTime() - t0).Seconds(), bytes: int64(blocks*opsPerBlock) * pageSize}

	klog := &kernelLog{rec: e.rec}
	ph := beginPhase(sys)
	err = r.measure(func() error {
		end, err := klog.launch(sys.GPU(0), "rand_evict", 0, blocks, blockThreads, func(c *gpufs.BlockCtx, b *blockLog) error {
			fd, err := b.gopen(c, path, gpufs.O_RDWR)
			if err != nil {
				return err
			}
			buf := c.Scratch[:pageSize]
			for _, op := range ops[c.Idx] {
				off := op.page * pageSize
				if op.write {
					if err := b.gwrite(c, fd, shadow[off:off+pageSize], off); err != nil {
						return err
					}
					continue
				}
				if _, err := b.gread(c, fd, buf, off, true); err != nil {
					return err
				}
				if !bytes.Equal(buf, data[off:off+pageSize]) &&
					!(written[op.page] && bytes.Equal(buf, shadow[off:off+pageSize])) {
					b.failed++
				}
			}
			if err := b.gfsync(c, fd, false); err != nil {
				return err
			}
			return b.gclose(c, fd)
		})
		r.makespan = simtime.Duration(end)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer = ph.finish(r.makespan)
	klog.fold(r)
	r.attempted = int64(len(r.opLat)) + pages
	r.layer["gpufs.virt_wr_mbps"] = float64(wrBytes) / r.makespan.Seconds() / 1e6
	if err := checkWarm("rand_evict", r.layer); err != nil {
		return nil, err
	}

	// Oracle: after every block's Gfsync the host file is the shadow.
	host, err := sys.ReadHostFile(path)
	if err != nil {
		return nil, err
	}
	r.failed += mismatchedPages(host, shadow, pageSize)
	return r, nil
}

// mismatchedPages counts the pages on which got differs from want.
func mismatchedPages(got, want []byte, pageSize int64) int64 {
	if len(got) != len(want) {
		return int64(len(want))/pageSize + 1
	}
	var bad int64
	for off := int64(0); off < int64(len(want)); off += pageSize {
		end := min(off+pageSize, int64(len(want)))
		if !bytes.Equal(got[off:end], want[off:end]) {
			bad++
		}
	}
	return bad
}

// hotMixed: the Contention kernel at 4 daemon workers x 4 ring shards. 8
// reader blocks make repeated passes over a warmed 4 MiB hot region in
// 32 KiB Greads (all hits); 4 writer blocks each dirty a private 256 KiB
// slice and Gfsync every pass.
func hotMixed(e env) (*rep, error) {
	const (
		pageSize   = 32 << 10
		readers    = 8
		writers    = 4
		hotBytes   = 4 << 20
		sliceBytes = 256 << 10
		fileBytes  = hotBytes + writers*sliceBytes
		path       = "/bench/hot.bin"
	)
	readPasses, writePasses := 16, 3
	if e.smoke {
		readPasses, writePasses = 2, 1
	}

	t0 := cpuTime()
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.PageSize = pageSize
	cfg.RPCShards = 4
	cfg.DaemonWorkers = 4
	sys, err := e.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	data := randomBytes(e.seed, fileBytes)
	if err := sys.WriteHostFile(path, data); err != nil {
		return nil, err
	}
	// Warm pass: one block faults the whole file into the buffer cache, so
	// the measured kernel's reads are hits and its writes land in place.
	_, err = sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		for off := int64(0); off < fileBytes; off += pageSize {
			if _, err := c.Gread(fd, c.Scratch[:pageSize], off); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, err
	}
	// What writer w's slice holds after pass p; the last pass is the
	// shadow the host file is checked against.
	pattern := func(w, pass int) []byte {
		return randomBytes(e.seed<<16^int64(w)<<8^int64(pass), sliceBytes)
	}
	patterns := make([][][]byte, writers)
	shadow := append([]byte(nil), data...)
	for w := range patterns {
		patterns[w] = make([][]byte, writePasses)
		for p := range patterns[w] {
			patterns[w][p] = pattern(w, p)
		}
		copy(shadow[hotBytes+w*sliceBytes:], patterns[w][writePasses-1])
	}
	sys.ResetTime()
	r := &rep{
		setupS: (cpuTime() - t0).Seconds(),
		bytes:  int64(readers*readPasses)*hotBytes + int64(writers*writePasses)*sliceBytes,
	}

	klog := &kernelLog{rec: e.rec}
	ph := beginPhase(sys)
	err = r.measure(func() error {
		end, err := klog.launch(sys.GPU(0), "hot_mixed", 0, readers+writers, 64, func(c *gpufs.BlockCtx, b *blockLog) error {
			// Readers open O_RDWR like the writers: descriptors denote
			// files, so concurrent opens coalesce and their flags must
			// agree.
			fd, err := b.gopen(c, path, gpufs.O_RDWR)
			if err != nil {
				return err
			}
			if c.Idx < readers {
				buf := c.Scratch[:pageSize]
				for pass := 0; pass < readPasses; pass++ {
					for off := int64(0); off < hotBytes; off += pageSize {
						if _, err := b.gread(c, fd, buf, off, true); err != nil {
							return err
						}
						checkRead(b, buf, data[off:off+pageSize])
					}
				}
				return b.gclose(c, fd)
			}
			w := c.Idx - readers
			base := int64(hotBytes + w*sliceBytes)
			for pass := 0; pass < writePasses; pass++ {
				src := patterns[w][pass]
				for off := int64(0); off < sliceBytes; off += pageSize {
					if err := b.gwrite(c, fd, src[off:off+pageSize], base+off); err != nil {
						return err
					}
				}
				// Whole-file Gfsync, as the Contention kernel does. Under
				// real parallelism two blocks syncing the same page can
				// lose an update (KNOWN_ISSUES.md, 1); the free-running
				// pass of the traced run reports it when it happens.
				if err := b.gfsync(c, fd, true); err != nil {
					return err
				}
			}
			return b.gclose(c, fd)
		})
		r.makespan = simtime.Duration(end)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer = ph.finish(r.makespan)
	klog.fold(r)
	r.attempted = int64(len(r.opLat)) + fileBytes/pageSize

	// Bytes made durable over the latest writer block's completion.
	var lastWriter simtime.Time
	for _, b := range klog.blocks[readers:] {
		lastWriter = max(lastWriter, b.end)
	}
	r.layer["gpufs.virt_wr_mbps"] = float64(writers*writePasses*sliceBytes) / lastWriter.Seconds() / 1e6
	if err := checkWarm("hot_mixed", r.layer); err != nil {
		return nil, err
	}

	host, err := sys.ReadHostFile(path)
	if err != nil {
		return nil, err
	}
	r.failed += mismatchedPages(host, shadow, pageSize)
	return r, nil
}

// scanShape is what the two scanning workloads differ in.
type scanShape struct {
	name       string
	files      int
	filePages  int64 // pages of 16 KiB per file
	blocks     int
	cachePages int64 // GPU buffer cache
}

// openScan: 56 blocks stride over 1024 one-page files doing Gopen, Gread
// whole, Gclose; a second identical kernel then re-opens everything. The
// buffer cache holds the corpus, so the second pass is all fast reopens.
func openScan(e env) (*rep, error) {
	files := 1024
	if e.smoke {
		files = 128
	}
	return scanTwice(e, scanShape{name: "open_scan", files: files, filePages: 1, blocks: 56, cachePages: int64(files) + 64})
}

// reopenScan: 28 blocks stream 32-page files front to back in page-sized
// Greads, through a buffer cache a quarter of the corpus; a second
// identical kernel re-opens and re-reads everything. 16 KiB pages are
// outside adaptive read-ahead's dead zone, so the first pass runs on the
// stride detector and coalesced fills; by the second pass every file has
// been evicted and has a recorded profile, so it runs on history replay.
func reopenScan(e env) (*rep, error) {
	files := 112
	if e.smoke {
		files = 28
	}
	const filePages = 32
	return scanTwice(e, scanShape{name: "reopen_scan", files: files, filePages: filePages, blocks: 28, cachePages: int64(files) * filePages / 4})
}

// scanTwice runs the kernel both scanning workloads share: blocks stride
// over the files, and for each one Gopen, Gread page by page, Gclose. The
// user operation is one file, open to close.
func scanTwice(e env, sh scanShape) (*rep, error) {
	const (
		pageSize = 16 << 10
		dirs     = 16
	)
	fileBytes := sh.filePages * pageSize
	corpus := int64(sh.files) * fileBytes

	t0 := cpuTime()
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.PageSize = pageSize
	cfg.BufferCacheBytes = sh.cachePages * pageSize
	cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
	cfg.CPURAMBytes = max(cfg.CPURAMBytes, 8*corpus)
	sys, err := e.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	data := randomBytes(e.seed, corpus)
	paths := make([]string, sh.files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/scan/d%02d/f%04d.bin", i%dirs, i)
		if err := sys.WriteHostFile(paths[i], data[int64(i)*fileBytes:int64(i+1)*fileBytes]); err != nil {
			return nil, err
		}
	}
	sys.ResetTime()
	r := &rep{setupS: (cpuTime() - t0).Seconds(), bytes: 2 * corpus}

	scan := func(c *gpufs.BlockCtx, b *blockLog) error {
		buf := c.Scratch[:pageSize]
		for fi := c.Idx; fi < sh.files; fi += c.Blocks {
			want := data[int64(fi)*fileBytes : int64(fi+1)*fileBytes]
			start := c.Clock.Now()
			fd, err := b.gopen(c, paths[fi], gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			for off := int64(0); off < fileBytes; off += pageSize {
				n, err := b.gread(c, fd, buf, off, false)
				if err != nil {
					return err
				}
				checkRead(b, buf[:n], want[off:off+pageSize])
			}
			if err := b.gclose(c, fd); err != nil {
				return err
			}
			b.userOps = append(b.userOps, c.Clock.Now().Sub(start))
		}
		return nil
	}
	klog := &kernelLog{rec: e.rec}
	ph := beginPhase(sys)
	err = r.measure(func() error {
		end, err := klog.launch(sys.GPU(0), sh.name+".pass1", 0, sh.blocks, blockThreads, scan)
		if err != nil {
			return err
		}
		end, err = klog.launch(sys.GPU(0), sh.name+".pass2", end, sh.blocks, blockThreads, scan)
		r.makespan = simtime.Duration(end)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer = ph.finish(r.makespan)
	klog.fold(r)
	r.attempted = int64(len(r.opLat))
	if err := checkWarm(sh.name, r.layer); err != nil {
		return nil, err
	}
	return r, nil
}
