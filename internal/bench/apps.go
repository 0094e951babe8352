package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/params"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// Fig8 reproduces Figure 8: matrix–vector product throughput for inputs
// from 280 MB up to 11.2 GB (scaled), comparing the GPUfs kernel against
// the naïve (4-chunk) and optimized (fixed-chunk) CUDA double-buffering
// implementations. The largest input exceeds the GPU buffer cache and
// approaches CPU RAM, exposing the disk-bound regime in which GPUfs wins
// by ~4x.
func Fig8(scale float64) (*Table, error) {
	base := params.Scaled(scale)
	blocks := 2 * base.MPsPerGPU

	// Column count fixed at the paper's 128K elements, rows scaled.
	const cols = 128 << 10
	rowBytes := int64(cols) * 4
	paperSizes := []int64{280 << 20, 560 << 20, 2800 << 20, 5600 << 20, 11200 << 20}

	t := &Table{
		ID:     "Figure 8",
		Title:  fmt.Sprintf("matrix-vector product throughput (MB/s), vector %dK elements", cols>>10),
		Header: []string{"matrix", "GPUfs MB/s", "CUDA naive MB/s", "CUDA optimized MB/s"},
	}

	for _, paperSize := range paperSizes {
		size := base.ScaleBytes(paperSize)
		rows := int(size / rowBytes)
		if rows < 2*blocks {
			rows = 2 * blocks
		}

		run := func(kind string) (*workloads.MatVecResult, error) {
			cfg := gpufs.ScaledConfig(scale)
			// The paper uses 2 MB pages; when scaling shrinks them we
			// floor at 512 KB, below which per-page overheads would
			// dominate (Figure 4's left half) and misrepresent the
			// experiment.
			cfg.PageSize = cfg.ScaleBytes(2 << 20)
			if cfg.PageSize < 512<<10 {
				cfg.PageSize = 512 << 10
			}
			if cfg.PageSize < rowBytes {
				cfg.PageSize = rowBytes
			}
			// Page size must stay a power of two.
			for p := int64(1); ; p <<= 1 {
				if p >= cfg.PageSize {
					cfg.PageSize = p
					break
				}
			}
			// Every block pins a matrix mapping plus output and
			// vector pages concurrently; the cache must hold them
			// all or the kernel livelocks on reclamation.
			if min := int64(blocks+8) * cfg.PageSize * 2; cfg.BufferCacheBytes < min {
				cfg.BufferCacheBytes = min
			}
			if cfg.GPUMemBytes < 2*cfg.BufferCacheBytes {
				cfg.GPUMemBytes = 2 * cfg.BufferCacheBytes
			}
			// The CUDA baselines run standalone: the GPUfs buffer cache
			// would not occupy their card, so give the device enough
			// memory for the staging buffers the baseline allocates.
			var chunk int64
			switch kind {
			case "naive":
				chunk = (int64(rows)*rowBytes + 3) / 4
			case "opt":
				chunk = cfg.ScaleBytes(70 << 20)
			}
			if chunk > 0 {
				need := cfg.BufferCacheBytes + 17*chunk + int64(rows)*4 + 2*rowBytes + (64 << 20)
				if cfg.GPUMemBytes < need {
					cfg.GPUMemBytes = need
				}
			}
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			f, err := workloads.MakeMatVec(sys.Host(), sys.HostClock(), "/bench/mv", rows, cols, 8)
			if err != nil {
				return nil, err
			}
			sys.ResetTime()
			switch kind {
			case "gpufs":
				return workloads.MatVecGPUfs(sys, 0, f, blocks, 256)
			case "naive":
				return workloads.MatVecCUDA(sys, 0, f, f.MatrixBytes/4, 2, blocks, 256)
			default:
				// 16 fixed-size chunks in flight (§5.1.4).
				return workloads.MatVecCUDA(sys, 0, f, cfg.ScaleBytes(70<<20), 16, blocks, 256)
			}
		}

		gp, err := run("gpufs")
		if err != nil {
			return nil, fmt.Errorf("fig8 gpufs at %s: %w", sizeLabel(paperSize), err)
		}
		nv, err := run("naive")
		if err != nil {
			return nil, fmt.Errorf("fig8 naive at %s: %w", sizeLabel(paperSize), err)
		}
		opt, err := run("opt")
		if err != nil {
			return nil, fmt.Errorf("fig8 optimized at %s: %w", sizeLabel(paperSize), err)
		}
		t.AddRow(sizeLabel(paperSize)+" (paper scale)", mbps(gp.Throughput), mbps(nv.Throughput), mbps(opt.Throughput))
	}
	t.AddNote("paper shape: GPUfs tracks peak file-to-GPU bandwidth, beats the naive pipeline by 5%%-4x, and wins ~4x once the input exceeds CPU RAM (last row)")
	return t, nil
}

// imageSpecFor builds the §5.2.1 workload at scale: three databases of
// 383/357/400 MB (~25,000 images each) and 2,016 query images. The
// databases scale; the query count does NOT, because the work is
// queries x images while the I/O is only proportional to images — scaling
// both would shrink compute 1024x against 32x I/O and destroy the paper's
// compute-bound regime.
func imageSpecFor(cfg *params.Config, dir string, plan workloads.MatchPlan, seed int64) workloads.ImageSpec {
	return workloads.ImageSpec{
		Dir: dir,
		DBImages: []int{
			int(cfg.ScaleBytes(383<<20) / workloads.ImageBytes),
			int(cfg.ScaleBytes(357<<20) / workloads.ImageBytes),
			int(cfg.ScaleBytes(400<<20) / workloads.ImageBytes),
		},
		Queries: 2016,
		Plan:    plan,
		Seed:    seed,
	}
}

// Table2 reproduces Table 2: the impact of the GPU buffer cache size (2 GB,
// 1 GB, 0.5 GB at paper scale) on image-search running time, pages
// reclaimed, and the ratio of lock-free to locked radix-tree accesses.
func Table2(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Table 2",
		Title:  "image search vs buffer cache size (no-match queries, OS page cache flushed)",
		Header: []string{"cache", "time (s)", "pages reclaimed", "lock-free accesses", "locked accesses"},
	}

	for _, paperCache := range []int64{2 << 30, 1 << 30, 512 << 20} {
		cfg := gpufs.ScaledConfig(scale)
		cfg.BufferCacheBytes = cfg.ScaleBytes(paperCache)
		// Scale the page size with the cache so the page COUNT matches
		// the paper's regime; a full-size page in a scaled cache would
		// leave too few pages for the running blocks and distort the
		// reclamation behaviour this table measures.
		cfg.PageSize = pow2AtMost(cfg.ScaleBytes(cfg.PageSize))
		if cfg.PageSize < 4<<10 {
			cfg.PageSize = 4 << 10
		}
		if cfg.BufferCacheBytes < 4*cfg.PageSize {
			cfg.BufferCacheBytes = 4 * cfg.PageSize
		}
		sys, err := newSystem(cfg)
		if err != nil {
			return nil, err
		}
		w, err := workloads.MakeImageWorkload(sys.Host(), sys.HostClock(), imageSpecFor(&cfg, "/bench/img", workloads.MatchNone, 12))
		if err != nil {
			return nil, err
		}
		sys.DropHostCaches()
		sys.ResetTime()

		blocks := 2 * cfg.MPsPerGPU
		res, err := workloads.ImageSearchGPUfs(sys, w, 1, blocks, 512, "/bench/img/out.bin")
		if err != nil {
			return nil, fmt.Errorf("table2 at cache %s: %w", sizeLabel(paperCache), err)
		}
		st := sys.GPU(0).Stats()
		t.AddRow(sizeLabel(paperCache)+" (paper scale)", secs(res.Elapsed),
			fmt.Sprintf("%d", st.PagesReclaimed),
			fmt.Sprintf("%d", st.LockFreeAccesses),
			fmt.Sprintf("%d", st.LockedAccesses))
	}
	t.AddNote("paper shape: shrinking the cache forces reclamation and shifts accesses from lock-free to locked (2G: 0 reclaimed; 0.5G: tens of thousands)")
	return t, nil
}

// Table3 reproduces Table 3: image-matching time on the 8-core CPU and on
// 1–4 GPUs, for no-match and exact-match query sets, with the CPU page
// cache warmed (the paper's multi-GPU scaling configuration).
func Table3(scale float64) (*Table, error) {
	t, _, err := table3(scale)
	return t, err
}

// table3Times is one row of Table 3 before rounding: the 8-core CPU's time,
// then 1–4 GPUs'.
type table3Times struct {
	cpu  simtime.Duration
	gpus [4]simtime.Duration
}

// table3 is Table3 plus the times its rows were rendered from, which is what
// the shape test compares: two cells can round to the same hundredth.
func table3(scale float64) (*Table, []table3Times, error) {
	t := &Table{
		ID:     "Table 3",
		Title:  "approximate image matching: 8-core CPU vs 1-4 GPUs (warm CPU page cache)",
		Header: []string{"input", "CPUx8 (s)", "1 GPU (s)", "2 GPUs (s)", "3 GPUs (s)", "4 GPUs (s)"},
	}

	plans := []struct {
		name string
		plan workloads.MatchPlan
	}{
		{"No match", workloads.MatchNone},
		{"Exact match", workloads.MatchRandom},
	}

	var times []table3Times
	for _, pl := range plans {
		row := []string{pl.name}
		var tm table3Times

		// CPU baseline.
		cfg := gpufs.ScaledConfig(scale)
		sysCPU, err := newSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		w, err := workloads.MakeImageWorkload(sysCPU.Host(), sysCPU.HostClock(), imageSpecFor(&cfg, "/bench/img3", pl.plan, 13))
		if err != nil {
			return nil, nil, err
		}
		sysCPU.ResetTime()
		cres, err := workloads.ImageSearchCPU(sysCPU.Host(), w, cfg.NumCPUCores, cfg.CPUFlops)
		if err != nil {
			return nil, nil, err
		}
		row = append(row, secs(cres.Elapsed))
		tm.cpu = cres.Elapsed

		var oneGPU simtime.Duration
		for n := 1; n <= 4; n++ {
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, nil, err
			}
			if _, err := workloads.MakeImageWorkload(sys.Host(), sys.HostClock(), imageSpecFor(&cfg, "/bench/img3", pl.plan, 13)); err != nil {
				return nil, nil, err
			}
			sys.ResetTime()
			res, err := workloads.ImageSearchGPUfs(sys, w, n, 2*cfg.MPsPerGPU, 512, "/bench/img3/out.bin")
			if err != nil {
				return nil, nil, fmt.Errorf("table3 %s with %d GPUs: %w", pl.name, n, err)
			}
			tm.gpus[n-1] = res.Elapsed
			if n == 1 {
				oneGPU = res.Elapsed
				row = append(row, secs(res.Elapsed))
			} else {
				row = append(row, fmt.Sprintf("%s (%.1fx)", secs(res.Elapsed),
					float64(oneGPU)/float64(res.Elapsed)))
			}
		}
		t.AddRow(row...)
		times = append(times, tm)
	}
	t.AddNote("paper shape: near-linear GPU scaling (2.0x/2.9x/4.1x for no-match), ~9x for 4 GPUs over the 8-core CPU; exact-match scales slightly worse (static partitioning imbalance)")

	// §5.2.1's degenerate case: every query matches within the first page
	// of the first database, so the dynamic loading the file system
	// enables skips nearly all data — the paper measures a 400x drop
	// (53 s to 130 ms).
	cfg := gpufs.ScaledConfig(scale)
	sysNo, err := newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	wNo, err := workloads.MakeImageWorkload(sysNo.Host(), sysNo.HostClock(), imageSpecFor(&cfg, "/bench/img4", workloads.MatchNone, 17))
	if err != nil {
		return nil, nil, err
	}
	sysNo.ResetTime()
	resNo, err := workloads.ImageSearchGPUfs(sysNo, wNo, 1, 2*cfg.MPsPerGPU, 512, "/bench/img4/out.bin")
	if err != nil {
		return nil, nil, err
	}
	sysFirst, err := newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	wFirst, err := workloads.MakeImageWorkload(sysFirst.Host(), sysFirst.HostClock(), imageSpecFor(&cfg, "/bench/img4", workloads.MatchFirstPage, 17))
	if err != nil {
		return nil, nil, err
	}
	sysFirst.ResetTime()
	resFirst, err := workloads.ImageSearchGPUfs(sysFirst, wFirst, 1, 2*cfg.MPsPerGPU, 512, "/bench/img4/out.bin")
	if err != nil {
		return nil, nil, err
	}
	t.AddNote("degenerate first-page match: %s vs %s for no-match — a %.0fx drop from dynamic database loading (paper: 400x, 53s to 130ms)",
		resFirst.Elapsed, resNo.Elapsed, float64(resNo.Elapsed)/float64(resFirst.Elapsed))
	return t, times, nil
}

// Table4 reproduces Table 4: exact string match ("grep -w") over a
// Linux-source-like tree (~33,000 files, 524 MB) and a Shakespeare-like
// single 6 MB file, comparing the 8-core CPU, the GPUfs kernel, and the
// vanilla prefetch-everything GPU implementation.
func Table4(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Table 4",
		Title:  "GPU exact string match (grep -w), 58,000-word dictionary (scaled)",
		Header: []string{"input", "CPUx8", "GPU-GPUfs", "GPU-vanilla"},
	}

	type input struct {
		name     string
		files    int
		bytes    int64
		singular bool
	}
	inputs := []input{
		{"Linux source", 33000, 524 << 20, false},
		{"Shakespeare", 1, 6 << 20, true},
	}

	for _, in := range inputs {
		cfg := gpufs.ScaledConfig(scale)
		// The vanilla baseline runs standalone in reality: its text and
		// output buffers would not share the card with a GPUfs buffer
		// cache, so provision device memory for both.
		vanillaNeed := cfg.BufferCacheBytes + 2*cfg.ScaleBytes(in.bytes) + cfg.ScaleBytes(5<<30) + (64 << 20)
		if cfg.GPUMemBytes < vanillaNeed {
			cfg.GPUMemBytes = vanillaNeed
		}
		sys, err := newSystem(cfg)
		if err != nil {
			return nil, err
		}
		// The dictionary does not scale: grep's work is dictionary x
		// text, so scaling both factors would shrink compute 1024x
		// against 32x of I/O and hide the compute-bound regime that
		// gives the GPU its ~7x advantage.
		dict := workloads.MakeDictionary(58000)
		if err := sys.WriteHostFile("/bench/grep/dict.txt", dict.Encode()); err != nil {
			return nil, err
		}
		tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
			Dir:        "/bench/grep/src",
			NumFiles:   max(cfg.ScaleCount(in.files), 1),
			TotalBytes: cfg.ScaleBytes(in.bytes),
			Text:       workloads.TextSpec{Dict: dict, DictFraction: 0.35, Seed: 14},
		})
		if err != nil {
			return nil, err
		}
		if in.singular {
			// One big file: regenerate as a single-file tree.
			tree, err = workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
				Dir:        "/bench/grep/single",
				NumFiles:   1,
				TotalBytes: cfg.ScaleBytes(in.bytes),
				Text:       workloads.TextSpec{Dict: dict, DictFraction: 0.35, Seed: 15},
			})
			if err != nil {
				return nil, err
			}
		}
		// No warmup: the paper reports these numbers cold.
		sys.DropHostCaches()
		sys.ResetTime()

		blocks := 8 * cfg.MPsPerGPU
		gres, err := workloads.GrepGPUfs(sys, 0, "/bench/grep/dict.txt", tree.ListPath, "/bench/grep/out.txt",
			cfg.GrepGPURate, blocks, 512, 0)
		if err != nil {
			return nil, fmt.Errorf("table4 GPUfs on %s: %w", in.name, err)
		}

		sys.DropHostCaches()
		sys.ResetTime()
		vres, err := workloads.GrepVanillaGPU(sys, 1, dict, tree.Files, cfg.GrepGPURate, blocks, 512,
			cfg.ScaleBytes(5<<30))
		if err != nil {
			return nil, fmt.Errorf("table4 vanilla on %s: %w", in.name, err)
		}

		sys.DropHostCaches()
		sys.ResetTime()
		cres, err := workloads.GrepCPU(sys.Host(), dict, tree.Files, cfg.NumCPUCores, cfg.GrepCPURate)
		if err != nil {
			return nil, fmt.Errorf("table4 CPU on %s: %w", in.name, err)
		}

		t.AddRow(in.name+" (scaled)",
			secs(cres.Elapsed),
			fmt.Sprintf("%s (%.1fx)", secs(gres.Elapsed), float64(cres.Elapsed)/float64(gres.Elapsed)),
			fmt.Sprintf("%s (%.1fx)", secs(vres.Elapsed), float64(cres.Elapsed)/float64(vres.Elapsed)))
	}
	t.AddNote("paper: Linux source 6.07h CPU / 53m GPUfs (6.8x) / 50m vanilla (7.2x); Shakespeare 292s / 40s (7.3x) / 40s")
	t.AddNote("paper LOC (semicolons): CPU 80, GPUfs 140 (incl. 52 lines of string helpers), vanilla 178")
	return t, nil
}

// All runs every experiment at the given scale.
func All(scale float64) ([]*Table, error) {
	runners := []func(float64) (*Table, error){Fig4, Fig5, Fig6, Fig7, Fig8, Table2, Table3, Table4, Readahead, Serve, DaemonScaling, Ordering, Contention, Saturation}
	var out []*Table
	for _, r := range runners {
		tb, err := r(scale)
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pow2AtMost rounds n down to a power of two (minimum 1).
func pow2AtMost(n int64) int64 {
	p := int64(1)
	for p<<1 <= n {
		p <<= 1
	}
	return p
}
