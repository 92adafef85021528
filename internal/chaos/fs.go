package chaos

import (
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"autoloop/internal/wal"
)

// FSFaults is one armed storage-fault profile. Counts are countdowns —
// "fail the next N" — which keeps fault tests deterministic without a
// random source: the Nth write after Arm fails, every run.
type FSFaults struct {
	// FailWrites fails the next N file writes with ENOSPC (nothing
	// written).
	FailWrites int
	// ShortWrites makes the next N file writes write only the first half
	// of the buffer and return io.ErrShortWrite.
	ShortWrites int
	// FailFsyncs fails the next N fsyncs with EIO — the fsyncgate fault:
	// dirty pages may be gone, and the kernel will not report it twice.
	FailFsyncs int
	// FailCreates fails the next N file creates (O_CREATE opens) with
	// ENOSPC.
	FailCreates int
}

// FS is a fault-injecting wal.FS over the process filesystem. Disarmed it
// is a transparent passthrough. Arm installs countdown faults consumed by
// subsequent operations; the injected error values are real syscall
// errnos, so the WAL's retryable-vs-fatal taxonomy is exercised exactly as
// a real disk would drive it.
type FS struct {
	armed atomic.Bool

	mu sync.Mutex
	f  FSFaults
}

// NewFS returns a disarmed fault-injecting filesystem.
func NewFS() *FS { return &FS{} }

// Arm installs a fault profile.
func (fs *FS) Arm(f FSFaults) {
	fs.mu.Lock()
	fs.f = f
	fs.mu.Unlock()
	fs.armed.Store(true)
}

// Disarm stops injecting; unconsumed countdowns are kept for a later
// re-Arm decision but inert.
func (fs *FS) Disarm() { fs.armed.Store(false) }

// take consumes one unit of the selected countdown, reporting whether the
// fault fires.
func (fs *FS) take(n *int) bool {
	if !fs.armed.Load() {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if *n <= 0 {
		return false
	}
	*n--
	return true
}

// MkdirAll implements wal.FS.
func (fs *FS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// OpenFile implements wal.FS, wrapping the file so write/fsync faults
// reach it.
func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if flag&os.O_CREATE != 0 && fs.take(&fs.f.FailCreates) {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.ENOSPC}
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs}, nil
}

// ReadDir implements wal.FS.
func (fs *FS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// Remove implements wal.FS.
func (fs *FS) Remove(name string) error { return os.Remove(name) }

// SyncDir implements wal.FS.
func (fs *FS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// file is one fault-wrapped open file.
type file struct {
	*os.File
	fs *FS
}

// Write injects ENOSPC (nothing written) or a short write (first half
// written, io.ErrShortWrite returned) before delegating.
func (f *file) Write(p []byte) (int, error) {
	if f.fs.take(&f.fs.f.FailWrites) {
		return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	}
	if f.fs.take(&f.fs.f.ShortWrites) {
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &os.PathError{Op: "write", Path: f.Name(), Err: io.ErrShortWrite}
	}
	return f.File.Write(p)
}

// Sync injects EIO, the canonical failed-fsync errno.
func (f *file) Sync() error {
	if f.fs.take(&f.fs.f.FailFsyncs) {
		return &os.PathError{Op: "fsync", Path: f.Name(), Err: syscall.EIO}
	}
	return f.File.Sync()
}
