package core

import (
	"gpufs/internal/ckpt"
	"gpufs/internal/gpu"
)

// Access history (ISSUE 9) is the read-ahead detector's memory across
// opens. Left alone the detector speculates only on LIVE strides: every
// re-open re-earns confidence from zero, and the first pages of each
// stream are demand faults. So the final gclose records what the detector
// knew — per slot, the stream's first page, confirmed stride and window —
// on the file's cache, and the next gopen that reuses that cache hands it
// back: the slots start confident, and each stream's first window is issued
// at open time, before the demand reads arrive (the approach of Dimitsas &
// Silberstein's readahead prefetcher). There is no second engine: the
// pre-warm is the detector's own issue routine, sized by the one planner
// (plan).
//
// The profile lives and dies with its cache (fileCache.profile), so the
// checks that decide whether a closed cache is current — reopen's PeekValid,
// adopt's Validate — decide for the profile too: a cache the host has moved
// past is discarded, and its profile with it. Profiles are only ever a hint:
// pre-warmed pages are fetched through the file's current host descriptor,
// and a stream that changed its pattern breaks the seeded streak on its
// second access like any other.

// historyAttach hands a freshly opened file the profile its cache carries
// from the last open: every recorded slot starts confident (streak at the
// ramp threshold, old window), and its first window is issued now with the
// recorded first page as the predicted access. Called once per open-table
// entry, by its opener before any waiter is admitted (finishOpen), so no
// stream is live yet.
func (fs *FS) historyAttach(b *gpu.Block, f *file) {
	if !fs.ahead(onReplay, f) {
		return
	}
	prof := f.fc.profile.Load()
	if prof == nil {
		return
	}
	lastFile := (f.fc.size.Load() - 1) / fs.opt.PageSize
	seeded := false
	for _, hs := range *prof {
		// Profiles also arrive in checkpoint images, so the fields are
		// checked rather than trusted.
		if hs.Slot < 0 || hs.Slot >= raStreams || hs.First < 0 || hs.First > lastFile ||
			hs.Stride == 0 || hs.Stride > maxRAStride || hs.Stride < -maxRAStride {
			continue
		}
		st := f.streamFor(int(hs.Slot))
		st.mu.Lock()
		st.stride = hs.Stride
		st.streak = raRampStreak
		if st.window = int(hs.Window); st.window < raInitWindow {
			st.window = raInitWindow
		}
		fs.raIssue(b, f, st, hs.First, onReplay)
		seeded = true
	}
	if seeded {
		fs.historyReplays.Add(1)
	}
}

// historyRecord stores on a closing open's cache every detector slot
// holding a confirmed stride, or nil if none is. Called at the final gclose,
// after the cache retired; O_NOSYNC and unlinked files record nothing (their
// cache dies with the close), and under the prototype no slot is ever
// confirmed.
func (fs *FS) historyRecord(f *file) {
	if f.noSync || f.unlinked {
		return
	}
	var strides []ckpt.StrideImage
	for i := range raStreams {
		st := f.stream(i)
		if st == nil {
			continue
		}
		st.mu.Lock()
		if st.seen && st.streak >= 2 && st.stride != 0 &&
			st.stride <= maxRAStride && st.stride >= -maxRAStride {
			strides = append(strides, ckpt.StrideImage{
				Slot: int64(i), First: st.first, Stride: st.stride, Window: int64(st.window)})
		}
		st.mu.Unlock()
	}
	f.fc.setProfile(strides)
}

// setProfile replaces the profile the cache carries to its next open; none
// (nil) if strides is empty.
func (fc *fileCache) setProfile(strides []ckpt.StrideImage) {
	if len(strides) == 0 {
		fc.profile.Store(nil)
		return
	}
	fc.profile.Store(&strides)
}
