package wal

import (
	"errors"
	"sync"
)

// ErrInjected marks every failure produced by a FaultFS: crash-point
// write cuts, forced fsync errors, and forced short writes.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps an FS with deterministic fault injection:
//
//   - SetWriteBudget(n) kills the process at an arbitrary byte offset —
//     the write that crosses the budget persists only its first
//     remaining bytes and fails, and every later write, sync, create
//     and rename fails too (the process is "dead"; recover from the
//     underlying FS).
//   - FailSyncs makes every Sync fail while leaving writes intact
//     (a disk that accepts data but cannot flush).
//   - FailNextWrite(n) makes the next write persist only its first n
//     bytes and return an error (a short write).
//
// Reads are never failed, so recovery can run against the same FS.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	budget    int64 // <0: unlimited
	killed    bool
	failSyncs bool
	shortNext int // -1: off
	written   int64
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, budget: -1, shortNext: -1}
}

// SetWriteBudget arms a crash after n more written bytes.
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// FailSyncs toggles forced fsync failures.
func (f *FaultFS) FailSyncs(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = on
}

// FailNextWrite cuts the next write to n bytes.
func (f *FaultFS) FailNextWrite(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortNext = n
}

// Written reports the total bytes written through this FS (used by the
// crash harness to size its kill-point range).
func (f *FaultFS) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// admit decides how many of n bytes a write may persist. It returns the
// allowed count and whether the remainder must fail.
func (f *FaultFS) admit(n int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return 0, true
	}
	allowed := n
	fail := false
	if f.shortNext >= 0 {
		if f.shortNext < allowed {
			allowed = f.shortNext
		}
		f.shortNext = -1
		fail = true
	}
	if f.budget >= 0 && f.budget < int64(allowed) {
		allowed = int(f.budget)
		fail = true
		f.killed = true
	}
	if f.budget >= 0 {
		f.budget -= int64(allowed)
	}
	f.written += int64(allowed)
	return allowed, fail
}

func (f *FaultFS) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

func (f *FaultFS) syncFails() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed || f.failSyncs
}

func (f *FaultFS) Create(name string) (File, error) {
	if f.dead() {
		return nil, ErrInjected
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Open(name string) (File, error) { return f.inner.Open(name) }

func (f *FaultFS) Remove(name string) error {
	if f.dead() {
		return ErrInjected
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if f.dead() {
		return ErrInjected
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if f.dead() {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FaultFS) Size(name string) (int64, error) { return f.inner.Size(name) }

func (f *FaultFS) MkdirAll(dir string) error {
	if f.dead() {
		return ErrInjected
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) SyncDir(dir string) error {
	if f.syncFails() {
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	allowed, fail := f.fs.admit(len(p))
	n := 0
	if allowed > 0 {
		var err error
		n, err = f.inner.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if fail {
		return n, ErrInjected
	}
	return n, nil
}

func (f *faultFile) Read(p []byte) (int, error) { return f.inner.Read(p) }

func (f *faultFile) Sync() error {
	if f.fs.syncFails() {
		return ErrInjected
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
