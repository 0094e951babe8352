// Package wrapfs is the GPUfs consistency layer: the analogue of the
// modified WRAPFS stackable file system the paper runs on the host (§4.4).
// It interposes on the host file system to track, per inode, which GPUs
// hold cached copies and at which content generation, and answers the one
// question GPUfs's lazy invalidation protocol needs: "is this GPU's cached
// copy still current, or was the file modified (by the CPU or another GPU)
// since it was cached?"
//
// Like the real WRAPFS module, this layer sees only metadata — it provides
// no access to file content, so host file-access policies are not
// compromised. Invalidations are propagated lazily: closing a file on one
// GPU pushes nothing; a stale cache is discovered only when its owner
// re-opens the file (§4.4).
package wrapfs

import (
	"fmt"
	"sync"

	"gpufs/internal/hostfs"
)

// Layer is the consistency interposition layer. One Layer serves all GPUs
// of one host process.
type Layer struct {
	fs *hostfs.FS

	mu    sync.Mutex
	files map[int64]*fileState

	invalidations int64
	validations   int64
}

type fileState struct {
	// cachedGen[gpu] is the host generation the GPU's buffer-cache copy
	// corresponds to.
	cachedGen map[int]int64
	// writer is the GPU currently holding the file open for writing, or
	// -1. The prototype supports a single writer at a time (§4.4); the
	// diff-and-merge extension lifts this via AllowMultiWriter.
	writer  int
	writers map[int]bool // multi-writer mode
}

// New creates a consistency layer over fs.
func New(fs *hostfs.FS) *Layer {
	return &Layer{fs: fs, files: make(map[int64]*fileState)}
}

// FS returns the wrapped host file system.
func (l *Layer) FS() *hostfs.FS { return l.fs }

func (l *Layer) state(ino int64) *fileState {
	st, ok := l.files[ino]
	if !ok {
		st = &fileState{cachedGen: make(map[int]int64), writer: -1, writers: make(map[int]bool)}
		l.files[ino] = st
	}
	return st
}

// RecordCached notes that the given GPU now caches the file's content as of
// generation gen (called when the GPU opens the file and with every reply
// that tells it what its own write made of the host file). A record only
// moves forward: host generations only grow, and a GPU's write-backs of one
// file finish in no particular order, so a report older than the record is
// late, not news. Forget and a failed Validate drop the record; the next
// RecordCached starts it afresh.
func (l *Layer) RecordCached(gpu int, ino, gen int64) {
	l.mu.Lock()
	st := l.state(ino)
	if cur, ok := st.cachedGen[gpu]; !ok || gen > cur {
		st.cachedGen[gpu] = gen
	}
	l.mu.Unlock()
}

// Validate reports whether the GPU's cached copy of ino is still current
// with respect to the host generation hostGen. A false result means the
// GPU must discard its cached pages for this file (lazy invalidation at
// re-open).
func (l *Layer) Validate(gpu int, ino, hostGen int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.validations++
	st := l.state(ino)
	cached, ok := st.cachedGen[gpu]
	if !ok {
		return false
	}
	if cached != hostGen {
		l.invalidations++
		delete(st.cachedGen, gpu)
		return false
	}
	return true
}

// PeekValid is the cheap validation path: the consistency module mirrors
// per-inode generations into write-shared memory, so a GPU can check its
// cached copy against the host without a daemon round trip. Unlike
// Validate it does not mutate tracking state on mismatch.
func (l *Layer) PeekValid(gpu int, ino, gen int64) bool {
	hostGen, ok := l.fs.InodeGeneration(ino)
	if !ok || hostGen != gen {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.validations++
	cached, have := l.state(ino).cachedGen[gpu]
	return have && cached == gen
}

// Forget drops the layer's record of the GPU's cache for ino (the GPU
// evicted or invalidated it locally).
func (l *Layer) Forget(gpu int, ino int64) {
	l.mu.Lock()
	if st, ok := l.files[ino]; ok {
		delete(st.cachedGen, gpu)
	}
	l.mu.Unlock()
}

// ErrBusy is returned when a second writer opens a file in single-writer
// mode.
type ErrBusy struct {
	Ino    int64
	Writer int
}

// Error implements the error interface.
func (e *ErrBusy) Error() string {
	return fmt.Sprintf("wrapfs: inode %d already opened for writing by GPU %d", e.Ino, e.Writer)
}

// BeginWrite registers the GPU as a writer of ino. With multiWriter false
// (the prototype's limitation, §4.4) a second concurrent writer fails with
// *ErrBusy; with multiWriter true any number of GPUs may write and the
// diff-and-merge protocol reconciles their updates.
func (l *Layer) BeginWrite(gpu int, ino int64, multiWriter bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state(ino)
	if multiWriter {
		st.writers[gpu] = true
		return nil
	}
	if st.writer >= 0 && st.writer != gpu {
		return &ErrBusy{Ino: ino, Writer: st.writer}
	}
	if len(st.writers) > 0 {
		for w := range st.writers {
			if w != gpu {
				return &ErrBusy{Ino: ino, Writer: w}
			}
		}
	}
	st.writer = gpu
	return nil
}

// EndWrite releases the GPU's writer registration for ino.
func (l *Layer) EndWrite(gpu int, ino int64) {
	l.mu.Lock()
	if st, ok := l.files[ino]; ok {
		if st.writer == gpu {
			st.writer = -1
		}
		delete(st.writers, gpu)
	}
	l.mu.Unlock()
}

// Writers reports how many GPUs currently hold ino open for writing.
func (l *Layer) Writers(ino int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.files[ino]
	if !ok {
		return 0
	}
	n := len(st.writers)
	if st.writer >= 0 && !st.writers[st.writer] {
		n++
	}
	return n
}

// Stats reports cumulative validation and invalidation counts.
func (l *Layer) Stats() (validations, invalidations int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.validations, l.invalidations
}
