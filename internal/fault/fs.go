package fault

import (
	"io"
	"os"
)

// File is the writable-file surface the checkpoint layer needs: ordered
// writes, durability (Sync) and Close. os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface of the crash-consistent pipeline. The
// runner performs every checkpoint operation through an FS so tests can
// substitute an injector; OS is the real implementation.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create truncates or creates name for writing (compaction temps).
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newname with oldname (same directory).
	Rename(oldname, newname string) error
	// Truncate cuts name to size bytes (torn-tail salvage).
	Truncate(name string, size int64) error
	// Remove deletes name (stale compaction temps).
	Remove(name string) error
}

// osFS is the passthrough FS.
type osFS struct{}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error)        { return os.Create(name) }
func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }
func (osFS) Rename(oldname, newname string) error    { return os.Rename(oldname, newname) }
func (osFS) Truncate(name string, size int64) error  { return os.Truncate(name, size) }
func (osFS) Remove(name string) error                { return os.Remove(name) }

// OS is the real filesystem.
var OS FS = osFS{}

// InjectFS wraps an FS with deterministic fault hooks. Zero-value hooks
// pass through; Inner nil means OS.
type InjectFS struct {
	Inner FS
	// WritePlanFor, when non-nil, supplies the fault plan applied to the
	// write stream of files opened via OpenAppend/Create. Called once per
	// open; return nil for a fault-free stream.
	WritePlanFor func(name string) *WritePlan
	// SyncErr, when non-nil, is consulted before each File.Sync; a
	// non-nil return is injected instead of syncing.
	SyncErr func(name string) error
	// RenameErr, when non-nil, is consulted before each Rename; a
	// non-nil return is injected and the rename does not happen.
	RenameErr func(oldname, newname string) error
	// TruncateErr, when non-nil, is consulted before each Truncate; a
	// non-nil return is injected and the truncate does not happen.
	TruncateErr func(name string, size int64) error
}

func (f *InjectFS) inner() FS {
	if f.Inner == nil {
		return OS
	}
	return f.Inner
}

// injectFile routes writes through a plan and sync through the hook. A
// plan that crashed also fails Sync and silently "loses" Close (the
// process is notionally dead; the underlying descriptor still closes so
// tests don't leak).
type injectFile struct {
	name string
	f    File
	plan *WritePlan
	fs   *InjectFS
}

func (i *injectFile) Write(b []byte) (int, error) {
	if i.plan == nil {
		return i.f.Write(b)
	}
	return i.plan.apply(i.f, b)
}

func (i *injectFile) Sync() error {
	if i.plan != nil && i.plan.Crashed() {
		return ErrCrash
	}
	if i.fs.SyncErr != nil {
		if err := i.fs.SyncErr(i.name); err != nil {
			return err
		}
	}
	return i.f.Sync()
}

func (i *injectFile) Close() error {
	err := i.f.Close()
	if i.plan != nil && i.plan.Crashed() {
		return ErrCrash
	}
	return err
}

func (f *InjectFS) wrap(name string, file File) File {
	var plan *WritePlan
	if f.WritePlanFor != nil {
		plan = f.WritePlanFor(name)
	}
	return &injectFile{name: name, f: file, plan: plan, fs: f}
}

// OpenAppend opens for append, attaching the file's write plan.
func (f *InjectFS) OpenAppend(name string) (File, error) {
	file, err := f.inner().OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

// Create creates the file, attaching the file's write plan.
func (f *InjectFS) Create(name string) (File, error) {
	file, err := f.inner().Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

// Open passes through to the inner FS.
func (f *InjectFS) Open(name string) (io.ReadCloser, error) { return f.inner().Open(name) }

// Rename injects RenameErr or passes through.
func (f *InjectFS) Rename(oldname, newname string) error {
	if f.RenameErr != nil {
		if err := f.RenameErr(oldname, newname); err != nil {
			return err
		}
	}
	return f.inner().Rename(oldname, newname)
}

// Truncate injects TruncateErr or passes through.
func (f *InjectFS) Truncate(name string, size int64) error {
	if f.TruncateErr != nil {
		if err := f.TruncateErr(name, size); err != nil {
			return err
		}
	}
	return f.inner().Truncate(name, size)
}

// Remove passes through to the inner FS.
func (f *InjectFS) Remove(name string) error { return f.inner().Remove(name) }

// WriteFile replaces path's content with data atomically through fsys
// (nil means OS): it writes path+".tmp", syncs and closes it, then
// renames it over path. A crash at any byte leaves path's old content,
// or no file, never a torn mix; a failed step removes the temp.
func WriteFile(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OS
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best-effort; the first error wins
	}
	return err
}
