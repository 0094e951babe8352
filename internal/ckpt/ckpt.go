// Package ckpt defines the checkpoint image for a live gpufs host stack
// and a self-contained binary codec for it (ISSUE 10).
//
// An Image is everything a replacement host needs to impersonate a
// draining one without the tenants noticing: per-GPU buffer-cache
// contents (dirty pages by value, clean pages by reference), the
// closed-file fast-reopen table with its sticky errseq write errors and
// each file's read-ahead profile, and the manifest of queued jobs handed
// back to the fleet, which re-routes each exactly once.
//
// The capture protocol that fills an Image lives in internal/core (the
// cache walk and its validating commit) and internal/serve (the queue
// freeze); this package is deliberately leaf-level — plain data plus a
// codec — so that the image can cross any boundary (fleet node, file on
// disk, fuzzer corpus) without dragging the simulator along.
//
// Speculation rules (PhoenixOS-style validated speculation):
//
//   - Dirty pages are the correctness payload: they hold device writes
//     the host file does not have yet. They are always copied by value
//     and always restored. A capture in which the source wrote a file
//     back after copying its dirty pages is refused at commit, so a
//     restore never writes old bytes over ones a gfsync put there.
//   - Clean pages are an optimization: the host file holds the same
//     bytes, so the image records only their indices and the restore
//     re-fetches them through the new host's descriptor. At commit each
//     file's (ino, generation) is validated against the live host; if
//     the host moved underneath, the clean set is dropped (restore
//     simply starts cold for that file) — never served stale.
//   - A read-ahead profile is a hint: it rides on its file's image, and
//     the restore attaches it only to a cache whose size and generation
//     equal the image's.
package ckpt

import "errors"

// ErrBudget is returned by a checkpoint whose captured bytes exceed the
// configured CkptMaxBytes budget. The caller is expected to fall back to
// drain+restart.
var ErrBudget = errors.New("ckpt: image exceeds checkpoint byte budget")

// Image is a whole-host checkpoint.
type Image struct {
	// SourceHost is the fleet slot the image was captured from (-1 when
	// captured outside a fleet).
	SourceHost int64
	// CaptureStart and CaptureEnd bound the capture window in virtual
	// nanoseconds on the source host's timeline.
	CaptureStart int64
	CaptureEnd   int64
	// GPUs holds one FS image per GPU, index-aligned with the source
	// host's GPU numbering.
	GPUs []FSImage
	// Queued is the manifest of jobs that were admitted but never
	// dispatched on the source. They are NOT re-executed at restore: the
	// source completed them with ErrHandedOff, and the fleet re-routes
	// each one exactly once (affinity steers them to the restored host). The manifest exists for audit and metrics.
	Queued []JobImage
}

// FSImage is one GPU's buffer-cache and open-file state.
type FSImage struct {
	GPU   int64
	Files []FileImage
}

// FileImage is one file's cached state: identity for validation, the
// fast-reopen flags, the sticky deferred write error, the page sets, and
// the read-ahead profile its cache carries.
type FileImage struct {
	Path  string
	Ino   int64
	Gen   int64
	Size  int64
	Flags int64
	// WbErr is the file's sticky errseq write-back error ("" = none),
	// restored verbatim so the next gfsync/gclose on the new host still
	// surfaces it.
	WbErr string
	// Dirty pages carry their bytes (value capture).
	Dirty []PageImage
	// Clean holds page indices captured by reference; dropped at commit
	// if the host (ino, gen) validation fails.
	Clean []int64
	// Strides is the read-ahead profile: what the detector knew at the
	// file's last gclose. A restore attaches it only to a cache whose size
	// and generation match Size and Gen.
	Strides []StrideImage
}

// PageImage is one dirty page's payload.
type PageImage struct {
	Index int64
	Valid int64
	Data  []byte
}

// StrideImage is one confirmed read-ahead detector slot: the stream's
// first page, stride and window depth.
type StrideImage struct {
	Slot   int64
	First  int64
	Stride int64
	Window int64
}

// JobImage is one queued job's manifest entry.
type JobImage struct {
	ID       int64
	Tenant   string
	Kind     int64
	Path     string
	Word     string
	Deadline int64
}

// Bytes reports the page payload captured by value across the image —
// the number the CkptMaxBytes budget is enforced against.
func (img *Image) Bytes() int64 {
	var n int64
	for i := range img.GPUs {
		for j := range img.GPUs[i].Files {
			for k := range img.GPUs[i].Files[j].Dirty {
				n += int64(len(img.GPUs[i].Files[j].Dirty[k].Data))
			}
		}
	}
	return n
}

// DirtyPages counts value-captured pages across the image.
func (img *Image) DirtyPages() int {
	n := 0
	for i := range img.GPUs {
		for j := range img.GPUs[i].Files {
			n += len(img.GPUs[i].Files[j].Dirty)
		}
	}
	return n
}

// CleanPages counts by-reference pages that survived commit validation.
func (img *Image) CleanPages() int {
	n := 0
	for i := range img.GPUs {
		for j := range img.GPUs[i].Files {
			n += len(img.GPUs[i].Files[j].Clean)
		}
	}
	return n
}
