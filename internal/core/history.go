package core

import (
	"container/list"
	"sync"

	"gpufs/internal/ckpt"
	"gpufs/internal/gpu"
)

// Access history (ISSUE 9) is the read-ahead detector's memory across
// opens. Left alone the detector speculates only on LIVE strides: every
// re-open re-earns confidence from zero, and the first pages of each
// stream are demand faults. So the final gclose records what the detector
// knew — per slot, the stream's first page, confirmed stride and window —
// and the next gopen of the same (unchanged) file hands it back: the slots
// start confident, and each stream's first window is issued at open time,
// before the demand reads arrive (the approach of Dimitsas & Silberstein's
// readahead prefetcher). There is no second engine: the pre-warm is the
// detector's own issue routine, sized by the one planner (plan).
//
// Profiles are only ever a hint: pre-warmed pages are fetched through the
// file's current host descriptor, so a stale profile can waste transfers
// but never serve dead bytes. Staleness is bounded twice over — the profile
// is validated against the file's host generation and size at attach time
// (host-side mutation drops it), and a stream that changed its pattern
// breaks the seeded streak on its second access like any other.

// histMaxFiles bounds the FS-level profile table (LRU eviction).
const histMaxFiles = 128

// historyTable is the FS-level bounded profile store, keyed by pathname.
// A profile is kept in its checkpoint-image form (ckpt.ProfileImage: path,
// the size and host generation it was recorded against, and per confirmed
// detector slot the stream's first page, stride and window), so a
// checkpoint carries the table as it is. Profiles are immutable once
// stored.
type historyTable struct {
	mu      sync.Mutex
	entries map[string]*list.Element // of *ckpt.ProfileImage
	lru     list.List                // front = most recently used
}

func newHistoryTable() *historyTable {
	return &historyTable{entries: make(map[string]*list.Element)}
}

// lookup returns the profile recorded for path (and refreshes its LRU
// position), or nil.
func (h *historyTable) lookup(path string) *ckpt.ProfileImage {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.entries[path]
	if !ok {
		return nil
	}
	h.lru.MoveToFront(el)
	return el.Value.(*ckpt.ProfileImage)
}

// store inserts or replaces the profile for prof.Path, evicting the least
// recently used entry past the bound.
func (h *historyTable) store(prof *ckpt.ProfileImage) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.entries[prof.Path]; ok {
		el.Value = prof
		h.lru.MoveToFront(el)
		return
	}
	h.entries[prof.Path] = h.lru.PushFront(prof)
	for h.lru.Len() > histMaxFiles {
		last := h.lru.Back()
		h.lru.Remove(last)
		delete(h.entries, last.Value.(*ckpt.ProfileImage).Path)
	}
}

// remove drops path's profile (attach-time invalidation).
func (h *historyTable) remove(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.entries[path]; ok {
		h.lru.Remove(el)
		delete(h.entries, path)
	}
}

// clear empties the table (GPU restart: profiles describe caches that no
// longer exist, and the next open re-records from scratch).
func (h *historyTable) clear() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = make(map[string]*list.Element)
	h.lru.Init()
}

// historyAttach hands a freshly opened file the profile its previous open
// recorded, provided the host generation and size still match: every
// recorded slot starts confident (streak at the ramp threshold, old
// window), and its first window is issued now with the recorded first page
// as the predicted access. Called once per open-table entry, by its opener
// before any waiter is admitted (finishOpen), so no stream is live yet.
func (fs *FS) historyAttach(b *gpu.Block, f *file) {
	if !fs.ahead(onReplay, f) {
		return
	}
	prof := fs.history.lookup(f.path)
	if prof == nil {
		return
	}
	fc := f.fc
	if prof.Gen != fc.gen.Load() || prof.Size != fc.size.Load() {
		// The host copy moved on (or the file was resized) since the
		// profile was recorded: drop it and fall back to the cold
		// detector.
		fs.history.remove(f.path)
		fs.historyInvalidations.Add(1)
		return
	}
	lastFile := (prof.Size - 1) / fs.opt.PageSize
	seeded := false
	for _, hs := range prof.Strides {
		// Profiles also arrive in checkpoint images, so the fields are
		// checked rather than trusted.
		if hs.Slot < 0 || hs.Slot >= raStreams || hs.First < 0 || hs.First > lastFile ||
			hs.Stride == 0 || hs.Stride > maxRAStride || hs.Stride < -maxRAStride {
			continue
		}
		st := &f.ra[hs.Slot]
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

// historyRecord snapshots a closing open into the table: every detector
// slot holding a confirmed stride. Called at the final gclose; O_NOSYNC and
// unlinked files record nothing (their content dies with the close), nor does
// any file under the prototype, whose slots are never confirmed.
func (fs *FS) historyRecord(f *file) {
	if f.noSync || f.unlinked {
		return
	}
	var strides []ckpt.StrideImage
	for i := range f.ra {
		st := &f.ra[i]
		st.mu.Lock()
		if st.seen && st.streak >= 2 && st.stride != 0 &&
			st.stride <= maxRAStride && st.stride >= -maxRAStride {
			strides = append(strides, ckpt.StrideImage{
				Slot: int64(i), First: st.first, Stride: st.stride, Window: int64(st.window)})
		}
		st.mu.Unlock()
	}
	if len(strides) == 0 {
		return
	}
	fc := f.fc
	fs.history.store(&ckpt.ProfileImage{Path: f.path, Size: fc.size.Load(), Gen: fc.gen.Load(), Strides: strides})
}
