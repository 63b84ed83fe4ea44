package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultfs"
)

// memFS is a memory-backed faultfs.FS, the benchmark's tmpfs: file
// contents live in memory mapped outside the Go heap (so they neither
// grow the collector's work nor count as process memory in the
// benchmark's RSS figure), and directories are created for real under
// the run's scratch directory (the store lists its object fan-out with
// os.ReadDir, and the spill arena makes its bucket directory with
// os.MkdirTemp).
//
// On a VM disk, fsync latency varies by the hour and dominated the
// store's publish path and the spill arena's traffic. Behind the
// faultfs seam the program still makes every write, rename and fsync
// call, but none of them waits for the disk, and nothing is written
// outside the checkout.
type memFS struct {
	mu    sync.RWMutex
	files map[string]memFile
	arena arena
}

// memFile is a file's contents as the segments it was written in (one
// per write or append).
type memFile struct {
	segs [][]byte
	size int
	mod  time.Time
}

var _ faultfs.FS = (*memFS)(nil)

func newMemFS() *memFS { return &memFS{files: map[string]memFile{}} }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	out := make([]byte, 0, f.size)
	for _, seg := range f.segs {
		out = append(out, seg...)
	}
	return out, nil
}

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seg, err := m.arena.copy(data)
	if err != nil {
		return err
	}
	m.files[filepath.Clean(name)] = memFile{segs: [][]byte{seg}, size: len(data), mod: time.Now()}
	return nil
}

// WriteFileSync is WriteFile: memory needs no flush.
func (m *memFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	return m.WriteFile(name, data, perm)
}

func (m *memFS) Append(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seg, err := m.arena.copy(data)
	if err != nil {
		return err
	}
	name = filepath.Clean(name)
	f := m.files[name]
	m.files[name] = memFile{segs: append(f.segs, seg), size: f.size + len(data), mod: time.Now()}
	return nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(oldname)]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: fs.ErrNotExist}
	}
	delete(m.files, filepath.Clean(oldname))
	m.files[filepath.Clean(newname)] = f
	return nil
}

func (m *memFS) Link(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(oldname)]
	if !ok {
		return &os.LinkError{Op: "link", Old: oldname, New: newname, Err: fs.ErrNotExist}
	}
	if _, exists := m.files[filepath.Clean(newname)]; exists {
		return &os.LinkError{Op: "link", Old: oldname, New: newname, Err: fs.ErrExist}
	}
	m.files[filepath.Clean(newname)] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	_, ok := m.files[filepath.Clean(name)]
	delete(m.files, filepath.Clean(name))
	if len(m.files) == 0 {
		m.arena.reset()
	}
	m.mu.Unlock()
	if ok {
		return nil
	}
	return os.Remove(name) // a directory, or nothing
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.RLock()
	f, ok := m.files[filepath.Clean(name)]
	m.mu.RUnlock()
	if ok {
		return memInfo{name: filepath.Base(name), size: int64(f.size), mod: f.mod}, nil
	}
	return os.Stat(name)
}

func (m *memFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

// SyncDir has nothing to flush.
func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Now() time.Time { return time.Now() }

// removeTree drops every file under dir. The spill arena deletes its
// bucket directory with os.RemoveAll, past the seam, so its files are
// dropped here once the op that wrote them is done.
func (m *memFS) removeTree(dir string) {
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			delete(m.files, name)
		}
	}
	if len(m.files) == 0 {
		m.arena.reset()
	}
}

// close unmaps the file contents; the memFS must not be used after.
func (m *memFS) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = map[string]memFile{}
	return m.arena.free()
}

// arena is a bump allocator over anonymous memory mappings. Space is
// reclaimed only when the filesystem holds no file any more; the
// chunks are then reused from the start.
type arena struct {
	chunks [][]byte
	cur    int // chunk being filled
	off    int // fill offset in chunks[cur]
	big    [][]byte
	// touched is the high-water mark of bytes handed out, an upper
	// bound on the resident part of the mappings.
	touched int64
}

const arenaChunk = 4 << 20

// mappedTotal is the sum of touched over every live arena: the part of
// the process's resident set that holds memFS file contents, which on a
// real tmpfs would sit in the page cache instead.
var mappedTotal atomic.Int64

func (a *arena) grow(touched int64) {
	if touched > a.touched {
		mappedTotal.Add(touched - a.touched)
		a.touched = touched
	}
}

func (a *arena) copy(data []byte) ([]byte, error) {
	n := len(data)
	if n > arenaChunk {
		b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("memfs: map %d bytes: %w", n, err)
		}
		a.big = append(a.big, b)
		a.grow(a.touched + int64(n))
		return b[:copy(b, data):n], nil
	}
	if len(a.chunks) == 0 || a.off+n > arenaChunk {
		if len(a.chunks) > 0 {
			a.cur++
		}
		a.off = 0
		if a.cur == len(a.chunks) {
			c, err := syscall.Mmap(-1, 0, arenaChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return nil, fmt.Errorf("memfs: map a chunk: %w", err)
			}
			a.chunks = append(a.chunks, c)
		}
	}
	b := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	copy(b, data)
	a.off += n
	a.grow(int64(a.cur)*arenaChunk + int64(a.off) + a.bigBytes())
	return b, nil
}

func (a *arena) bigBytes() int64 {
	var n int64
	for _, b := range a.big {
		n += int64(len(b))
	}
	return n
}

// reset makes every chunk reusable and unmaps the oversized segments.
func (a *arena) reset() {
	for _, b := range a.big {
		_ = syscall.Munmap(b) // a failed unmap only leaks address space
	}
	mappedTotal.Add(-a.bigBytes())
	a.touched -= a.bigBytes()
	a.big, a.cur, a.off = nil, 0, 0
}

func (a *arena) free() error {
	a.reset()
	var err error
	for _, c := range a.chunks {
		if e := syscall.Munmap(c); e != nil && err == nil {
			err = fmt.Errorf("memfs: unmap: %w", e)
		}
	}
	mappedTotal.Add(-a.touched)
	a.chunks, a.touched = nil, 0
	return err
}

type memInfo struct {
	name string
	size int64
	mod  time.Time
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
