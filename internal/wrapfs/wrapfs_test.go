package wrapfs

import (
	"errors"
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
)

func newLayer(t *testing.T) (*Layer, *hostfs.FS, *simtime.Clock) {
	t.Helper()
	fs := hostfs.New(hostfs.Options{
		DiskBandwidth: 132 * simtime.MBps,
		DiskSeek:      simtime.Millisecond,
		MemBandwidth:  6600 * simtime.MBps,
		CacheBytes:    16 << 20,
	})
	return New(fs), fs, simtime.NewClock(0)
}

func fileInfo(t *testing.T, fs *hostfs.FS, c *simtime.Clock, path string, data []byte) hostfs.FileInfo {
	t.Helper()
	mode := hostfs.ModeRead | hostfs.ModeWrite
	if err := fs.WriteFile(c, path, data, mode); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestValidateLifecycle(t *testing.T) {
	l, fs, c := newLayer(t)
	info := fileInfo(t, fs, c, "/f", []byte("v1"))

	// No record yet: not valid.
	if l.Validate(0, info.Ino, info.Generation) {
		t.Fatalf("unrecorded cache validated")
	}
	l.RecordCached(0, info.Ino, info.Generation)
	if !l.Validate(0, info.Ino, info.Generation) {
		t.Fatalf("fresh cache should validate")
	}

	// Host modifies the file: the recorded generation goes stale.
	f, _ := fs.Open(c, "/f", hostfs.O_WRONLY, 0)
	f.Pwrite(c, []byte("v2"), 0)
	f.Close()
	newInfo, _ := fs.Stat("/f")
	if l.Validate(0, info.Ino, newInfo.Generation) {
		t.Fatalf("stale record must invalidate (and be dropped)")
	}
	// The failed validation dropped the record: re-validate also fails.
	if l.Validate(0, info.Ino, info.Generation) {
		t.Fatalf("record should have been dropped on invalidation")
	}
	_, inv := l.Stats()
	if inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
}

func TestValidatePerGPU(t *testing.T) {
	l, fs, c := newLayer(t)
	info := fileInfo(t, fs, c, "/f", []byte("v1"))
	l.RecordCached(0, info.Ino, info.Generation)
	if l.Validate(1, info.Ino, info.Generation) {
		t.Fatalf("GPU 1 has no cache; must not validate via GPU 0's record")
	}
}

func TestPeekValid(t *testing.T) {
	l, fs, c := newLayer(t)
	info := fileInfo(t, fs, c, "/f", []byte("v1"))
	l.RecordCached(0, info.Ino, info.Generation)

	if !l.PeekValid(0, info.Ino, info.Generation) {
		t.Fatalf("peek should validate a fresh cache")
	}
	// CPU write invalidates.
	f, _ := fs.Open(c, "/f", hostfs.O_WRONLY, 0)
	f.Pwrite(c, []byte("x"), 0)
	f.Close()
	if l.PeekValid(0, info.Ino, info.Generation) {
		t.Fatalf("peek should fail after host write")
	}
	// Unlink: the inode disappears entirely.
	fs.Unlink("/f")
	if l.PeekValid(0, info.Ino, info.Generation) {
		t.Fatalf("peek should fail after unlink")
	}
}

// TestRecordCachedOnlyMovesForward: a GPU's write-backs report the
// generations they produced in no particular order, and a late report of an
// older one must not make the record lag the host; dropping the record (Forget,
// a failed Validate) is what lets it start again from anywhere.
func TestRecordCachedOnlyMovesForward(t *testing.T) {
	l, _, _ := newLayer(t)
	const ino = 7
	l.RecordCached(0, ino, 6)
	l.RecordCached(0, ino, 5)
	if !l.Validate(0, ino, 6) {
		t.Fatalf("record moved backwards: 6 then 5 no longer validates at 6")
	}
	l.Forget(0, ino)
	l.RecordCached(0, ino, 5)
	if !l.Validate(0, ino, 5) {
		t.Fatalf("a record dropped by Forget must restart at whatever is reported next")
	}
}

func TestForget(t *testing.T) {
	l, fs, c := newLayer(t)
	info := fileInfo(t, fs, c, "/f", nil)
	l.RecordCached(2, info.Ino, info.Generation)
	l.Forget(2, info.Ino)
	if l.Validate(2, info.Ino, info.Generation) {
		t.Fatalf("forgotten cache validated")
	}
}

func TestSingleWriterEnforcement(t *testing.T) {
	l, _, _ := newLayer(t)
	if err := l.BeginWrite(0, 7, false); err != nil {
		t.Fatal(err)
	}
	// Same GPU re-registers fine.
	if err := l.BeginWrite(0, 7, false); err != nil {
		t.Fatal(err)
	}
	err := l.BeginWrite(1, 7, false)
	var busy *ErrBusy
	if !errors.As(err, &busy) || busy.Writer != 0 || busy.Ino != 7 {
		t.Fatalf("second writer: %v", err)
	}
	l.EndWrite(0, 7)
	if err := l.BeginWrite(1, 7, false); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestMultiWriterMode(t *testing.T) {
	l, _, _ := newLayer(t)
	if err := l.BeginWrite(0, 9, true); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginWrite(1, 9, true); err != nil {
		t.Fatalf("multi-writer: %v", err)
	}
	if got := l.Writers(9); got != 2 {
		t.Fatalf("writers = %d, want 2", got)
	}
	// A single-writer open must now fail: others are writing.
	if err := l.BeginWrite(2, 9, false); err == nil {
		t.Fatalf("exclusive open over shared writers should fail")
	}
	l.EndWrite(0, 9)
	l.EndWrite(1, 9)
	if got := l.Writers(9); got != 0 {
		t.Fatalf("writers = %d after release", got)
	}
	if got := l.Writers(12345); got != 0 {
		t.Fatalf("unknown inode writers = %d", got)
	}
}
