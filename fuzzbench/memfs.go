package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
)

// memFS is an in-memory campaign.FS. It keeps durable fleet state off
// the host's disk, whose latency varies far more between runs than the
// fuzzer's own checkpoint work, and it counts the checkpoint bytes the
// fuzzer writes.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	// ckptFiles and ckptBytes count sealed checkpoints written.
	ckptFiles, ckptBytes int64
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string][]byte), dirs: make(map[string]bool)}
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) Create(name string) (campaign.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[filepath.Dir(name)] {
		return nil, &fs.PathError{Op: "create", Path: name, Err: fs.ErrNotExist}
	}
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	data, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = data
	if strings.HasSuffix(newname, ".pafc") {
		m.ckptFiles++
		m.ckptBytes += int64(len(data))
	}
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return bytes.Clone(data), nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			names = append(names, filepath.Base(d))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memFile buffers writes and publishes them on Close.
type memFile struct {
	fs   *memFS
	name string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = f.buf.Bytes()
	return nil
}
