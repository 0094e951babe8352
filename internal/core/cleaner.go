package core

import (
	"sync/atomic"

	"gpufs/internal/core/radix"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// The background writeback cleaner (ISSUE 4). The original design has no
// daemon threads on the GPU side: paging hijacks the faulting threadblock
// (§4.2), so every dirty victim costs that block a synchronous RPC write.
// The cleaner takes that work off the fault critical path: when a demand
// fault finds the free pool below a low watermark, it kicks the idle
// cleaner lane, which runs on its OWN virtual clock and RPC lane — the
// GPU System Calls paper's non-blocking issue discipline — writing back
// cold dirty pages of open files (clean in place, stay resident) and
// pre-evicting closed-file frames (the §4.2 policy's cheapest victims)
// until the pool recovers to a high watermark. Eviction by the faulting
// block then mostly finds clean frames and never blocks on RPC writes.
//
// Failure semantics are unchanged from eviction-driven write-back: a
// failed write records the file's sticky deferred error
// (fileCache.recordWriteErr), surfaced at the next gfsync or final gclose,
// and the page stays resident and dirty so no data is lost. The
// claim/detach protocol is reused verbatim: a lane is one more actor running
// the lifecycle steps of page.go.

// cleanerLane is the cleaner's lane id, past any plausible threadblock
// index, so cleaner RPC traffic hashes onto ring shards independently of
// the blocks it is cleaning for.
const cleanerLane = 1 << 20

// maxCleanPerPass bounds how many open-file dirty pages one cleaner
// wake-up writes back, so a kick under heavy write load cannot monopolize
// the daemon workers for unbounded (virtual) time.
const maxCleanPerPass = 64

// cleaner is the one cleaning lane of a GPU: the actor that runs its passes
// and whether a pass is in progress.
type cleaner struct {
	busy atomic.Bool
	a    actor
	// low and high are the free-frame watermarks: a demand fault below
	// low kicks the lane; a pass stops pre-evicting at high.
	low  int
	high int
}

func newCleaner(fs *FS) *cleaner {
	n := fs.cache.NumFrames()
	low := n / 4
	if low < 2 {
		low = 2
	}
	high := n / 2
	if high <= low {
		high = low + 1
	}
	clk := simtime.NewClock(0)
	return &cleaner{low: low, high: high, a: actor{
		lane:  fs.sys.Bind(cleanerLane),
		clk:   clk,
		busy:  func(d simtime.Duration) { clk.Advance(d) },
		block: -1,
	}}
}

// ResetTimes forgets every virtual instant the FS remembers — the frames'
// transfer completions and the cleaner lane's clock — for a harness that
// rewinds virtual time: a lane still standing in the old timeline would stamp
// its write-backs there (Frame.CleanAt), and whoever joins one would be thrown
// into it. The caller has quiesced the GPU.
func (fs *FS) ResetTimes() {
	fs.cache.ResetTimes()
	if fs.cleaner != nil {
		*fs.cleaner.a.clk = simtime.Clock{}
	}
}

// maybeClean is the demand-fault hook: when the free pool is below the
// low watermark it runs a cleaning pass on the idle lane's clock. The
// faulting block pays nothing but this check — the pass advances the
// lane's timeline, not the block's, which is what makes the cleaning
// asynchronous in virtual time. With no cleaner configured this is a nil
// check.
func (fs *FS) maybeClean(now simtime.Time) {
	c := fs.cleaner
	if c == nil || fs.cache.FreeFrames() >= c.low {
		return
	}
	// A busy lane means cleaning is already in progress; the fault falls
	// through to the normal paging path.
	if !c.busy.CompareAndSwap(false, true) {
		return
	}
	fs.cleanerKicks.Add(1)
	// The lane cannot act before the kick that woke it.
	c.a.clk.AdvanceTo(now)
	fs.runCleanerPass(c.a)
	c.busy.Store(false)
}

// runCleanerPass walks the victim files in the same priority order as
// eviction: closed files are pre-evicted outright (dirty pages written
// back through the retained descriptor, frames freed), open files have
// their cold dirty pages cleaned in place so a later eviction finds them
// clean.
//
// A pass has work only where a page is dirty, so it visits only the files
// whose dirty count (setDirty) is non-zero and, when the FS has no dirty page
// at all, not even the file tables: its host cost follows the dirty files, not
// the cached ones. Walking a clean file booked nothing and sent nothing, so
// skipping the walk moves no clock; the kick is counted and the lane's clock
// advanced by maybeClean either way.
func (fs *FS) runCleanerPass(a actor) {
	if fs.dirtyPages.Load() == 0 {
		return
	}
	c := fs.cleaner
	start := a.clk.Now()
	evicted := 0
	cleaned := 0

	for _, v := range fs.ft.victims() {
		if v.fc.dirty.Load() == 0 {
			continue
		}
		free := fs.cache.FreeFrames()
		if free >= c.high && v.class == 0 {
			continue // pool recovered: no need to pre-evict more
		}
		if v.class == 0 {
			// Dirty-only: clean frames of a closed file are cheap for a
			// faulting block to reclaim and may yet be re-hit by a reopen.
			evicted += fs.evictFromFile(a, v, c.high-free, evictDirty)
			continue
		}
		if cleaned < maxCleanPerPass {
			cleaned += fs.cleanFile(a, v, maxCleanPerPass-cleaned)
		}
	}
	if evicted+cleaned > 0 {
		fs.cleanedPages.Add(int64(evicted + cleaned))
		fs.recordAt(a.block, trace.OpClean, "", 0,
			int64(evicted+cleaned)*fs.opt.PageSize, start, a.clk.Now(), nil)
	}
}

// cleanFile writes back up to max dirty, unreferenced pages of v
// without evicting them. Failures record the file's deferred write error
// (POSIX errseq semantics — identical to eviction-driven write-back) and
// leave the page dirty and resident.
func (fs *FS) cleanFile(a actor, v victim, max int) int {
	if max <= 0 || v.hostFd == 0 {
		return 0
	}
	fc := v.fc
	cleaned := 0
	wb := writeBack{fs: fs, a: a, fc: fc, hostFd: v.hostFd}
	fc.tree.ForEachReadyPage(func(_ uint64, p *radix.FPage) bool {
		if cleaned >= max {
			return false
		}
		if p.Refs() > 0 {
			return true // hot: mapped or mid-access
		}
		fr := fs.hold(fc, p)
		if fr == nil {
			return true
		}
		if fr.Dirty.Load() {
			if err := wb.frame(fr); err != nil {
				fc.recordWriteErr(err)
			} else {
				cleaned++
				a.busy(fs.opt.APICostPerPage)
			}
		}
		p.Unref()
		return true
	})
	wb.done()
	return cleaned
}
