package gpufs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs"
)

// TestPrototypeIsThePaper runs one workload on the extended system and on
// the paper's prototype (Config.Prototype): a small file's open into an empty
// cache, a sequential scan of four times the cache, twice; a dirty file twice
// the cache; the small file's reopen, then cache hits on it. Every extension
// the switch turns off must have fired on the extended system and stayed
// silent on the prototype, and both systems must read the same bytes.
func TestPrototypeIsThePaper(t *testing.T) {
	const (
		page      = 16 << 10
		cachePage = 64
		files     = 8
		filePages = 32 // files*filePages is four times the cache
		blocks    = 4
	)
	rng := rand.New(rand.NewSource(7))
	corpus := make([]byte, files*filePages*page)
	rng.Read(corpus)
	small := corpus[:4<<10]

	run := func(prototype bool) ([]byte, *gpufs.System) {
		cfg := gpufs.ScaledConfig(1.0 / 256)
		cfg.NumGPUs = 1
		cfg.PageSize = page
		cfg.BufferCacheBytes = cachePage * page
		cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
		cfg.Prototype = prototype
		sys, err := gpufs.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := sys.WriteHostFile(fmt.Sprintf("/p/f%d", i), corpus[i*filePages*page:(i+1)*filePages*page]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.WriteHostFile("/p/small", small); err != nil {
			t.Fatal(err)
		}
		g := sys.GPU(0)
		launch := func(start gpufs.Time, n int, fn func(*gpufs.BlockCtx) error) gpufs.Time {
			end, err := g.Launch(start, n, 64, fn)
			if err != nil {
				t.Fatal(err)
			}
			return end
		}
		// Each scan pass and each small-file read lands in its own slice of
		// got, so block order cannot reorder it.
		got := make([]byte, 2*len(corpus)+5*len(small))
		readFile := func(c *gpufs.BlockCtx, path string, dst []byte) error {
			fd, err := c.Gopen(path, gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			for off := 0; off < len(dst); off += page {
				if _, err := c.Gread(fd, dst[off:min(off+page, len(dst))], int64(off)); err != nil {
					return err
				}
			}
			return c.Gclose(fd)
		}
		smallOut := got[2*len(corpus):]
		// Only an open into free frames carries its file: an open never evicts.
		end := launch(0, 1, func(c *gpufs.BlockCtx) error { return readFile(c, "/p/small", smallOut[:len(small)]) })
		for pass := 0; pass < 2; pass++ {
			out := got[pass*len(corpus):]
			end = launch(end, blocks, func(c *gpufs.BlockCtx) error {
				for fi := c.Idx; fi < files; fi += c.Blocks {
					if err := readFile(c, fmt.Sprintf("/p/f%d", fi), out[fi*filePages*page:(fi+1)*filePages*page]); err != nil {
						return err
					}
				}
				return nil
			})
		}
		end = launch(end, 1, func(c *gpufs.BlockCtx) error {
			// Dirty pressure: twice the cache, written back at the end.
			fd, err := c.Gopen("/p/dirty", gpufs.O_RDWR|gpufs.O_CREATE)
			if err != nil {
				return err
			}
			for off := 0; off < 2*cachePage*page; off += page {
				if _, err := c.Gwrite(fd, corpus[off%len(corpus):off%len(corpus)+page], int64(off)); err != nil {
					return err
				}
			}
			if err := c.Gfsync(fd); err != nil {
				return err
			}
			if err := c.Gclose(fd); err != nil {
				return err
			}
			return readFile(c, "/p/small", smallOut[len(small):2*len(small)])
		})
		// Cache hits: the small file is resident on both systems by now.
		launch(end, 1, func(c *gpufs.BlockCtx) error {
			for i := 2; i < 5; i++ {
				if err := readFile(c, "/p/small", smallOut[i*len(small):(i+1)*len(small)]); err != nil {
					return err
				}
			}
			return nil
		})
		return got, sys
	}

	extGot, ext := run(false)
	protoGot, proto := run(true)
	if !bytes.Equal(extGot, protoGot) {
		t.Fatalf("the prototype and the extended system read different bytes")
	}
	if want := bytes.Join([][]byte{corpus, corpus, bytes.Repeat(small, 5)}, nil); !bytes.Equal(extGot, want) {
		t.Fatalf("the extended system read bytes the host does not hold")
	}

	counters := func(sys *gpufs.System) map[string]int64 {
		fs := sys.GPU(0).FS()
		cs := fs.CacheStats()
		return map[string]int64{
			"PrefetchIssued": cs.PrefetchIssued,
			"ReplayIssued":   cs.ReplayIssued,
			"OpenFilled":     cs.OpenFilled,
			"CleanerKicks":   cs.CleanerKicks,
			"ZeroCopyReads":  fs.ZeroCopyReads(),
		}
	}
	for name, n := range counters(ext) {
		if n == 0 {
			t.Errorf("extended system: %s = 0, want the extension to have fired", name)
		}
	}
	for name, n := range counters(proto) {
		if n != 0 {
			t.Errorf("prototype: %s = %d, want 0", name, n)
		}
	}
	if got, want := ext.GPU(0).FS().Cache().Shards(), ext.Config().MPsPerGPU; got != want {
		t.Errorf("extended system: %d frame shards, want one per multiprocessor (%d)", got, want)
	}
	if got := proto.GPU(0).FS().Cache().Shards(); got != 1 {
		t.Errorf("prototype: %d frame shards, want one free list", got)
	}
}
