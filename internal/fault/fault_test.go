package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestTransientClassifier(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", base, false},
		{"marked", Transient(base), true},
		{"marked deep", fmt.Errorf("outer: %w", Transient(base)), true},
		{"eintr", syscall.EINTR, true},
		{"eagain wrapped", fmt.Errorf("io: %w", syscall.EAGAIN), true},
		{"ebusy", syscall.EBUSY, true},
		{"enospc fatal", syscall.ENOSPC, false},
		{"injected enospc fatal", ErrInjectedENOSPC, false},
		{"eio fatal", ErrInjectedEIO, false},
		{"crash fatal", ErrCrash, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.want)
		}
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	if !errors.Is(ErrInjectedENOSPC, syscall.ENOSPC) {
		t.Error("ErrInjectedENOSPC does not match syscall.ENOSPC")
	}
	if !errors.Is(ErrInjectedEIO, syscall.EIO) {
		t.Error("ErrInjectedEIO does not match syscall.EIO")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient does not unwrap to its cause")
	}
}

func TestWritePlanCrashTearsAtOffset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, NewWritePlan().CrashAt(10))
	if n, err := w.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("pre-crash write: n=%d err=%v", n, err)
	}
	n, err := w.Write([]byte("789abcdef"))
	if n != 3 || !IsCrash(err) {
		t.Fatalf("crossing write: n=%d err=%v, want 3 bytes then crash", n, err)
	}
	if got := buf.String(); got != "0123456789" {
		t.Fatalf("stream = %q, want exactly the first 10 bytes", got)
	}
	if n, err := w.Write([]byte("x")); n != 0 || !IsCrash(err) {
		t.Fatalf("post-crash write: n=%d err=%v", n, err)
	}
}

func TestWritePlanShortAndError(t *testing.T) {
	var buf bytes.Buffer
	plan := NewWritePlan().ShortWriteAt(4).ErrorAt(6, ErrInjectedENOSPC)
	w := NewWriter(&buf, plan)
	n, err := w.Write([]byte("aaaaaa"))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	// Retrying the remainder crosses the ENOSPC point two bytes later.
	n, err = w.Write([]byte("bbb"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("enospc write: n=%d err=%v", n, err)
	}
	// The stream continues after a non-crash fault.
	if n, err := w.Write([]byte("cc")); n != 2 || err != nil {
		t.Fatalf("post-fault write: n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "aaaabbcc" {
		t.Fatalf("stream = %q", got)
	}
}

func TestInjectFSAppendCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := &InjectFS{WritePlanFor: func(name string) *WritePlan {
		return NewWritePlan().CrashAt(5)
	}}
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("defg")); !IsCrash(err) {
		t.Fatalf("write past crash point: %v", err)
	}
	if err := f.Sync(); !IsCrash(err) {
		t.Fatalf("sync after crash: %v", err)
	}
	if err := f.Close(); !IsCrash(err) {
		t.Fatalf("close after crash: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abcde" {
		t.Fatalf("on-disk bytes = %q, want torn at offset 5", data)
	}
}

func TestInjectFSRenameHook(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "a")
	if err := os.WriteFile(old, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	fs := &InjectFS{RenameErr: func(o, n string) error {
		calls++
		if calls == 1 {
			return ErrInjectedEIO
		}
		return nil
	}}
	if err := fs.Rename(old, filepath.Join(dir, "b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first rename: %v", err)
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("failed rename must leave the source intact: %v", err)
	}
	if err := fs.Rename(old, filepath.Join(dir, "b")); err != nil {
		t.Fatalf("second rename: %v", err)
	}
}

// TestWriteFileAtomic: WriteFile through an InjectFS never leaves a torn
// file. A crash at any byte of the new content leaves the old content
// readable, and a failed Sync or Rename also removes the temp.
func TestWriteFileAtomic(t *testing.T) {
	const old, next = "old content\n", "the new content\n"
	setup := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "f")
		if err := WriteFile(nil, path, []byte(old)); err != nil {
			t.Fatal(err)
		}
		return path
	}
	check := func(t *testing.T, path string, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("a failed write reported success")
		}
		if got, rerr := os.ReadFile(path); rerr != nil || string(got) != old {
			t.Fatalf("after a failed write: %q, %v; want the old content", got, rerr)
		}
	}
	for at := int64(0); at < int64(len(next)); at++ {
		path := setup(t)
		fsys := &InjectFS{WritePlanFor: func(string) *WritePlan { return NewWritePlan().CrashAt(at) }}
		check(t, path, WriteFile(fsys, path, []byte(next)))
	}
	for name, fsys := range map[string]*InjectFS{
		"sync":   {SyncErr: func(string) error { return ErrInjectedEIO }},
		"rename": {RenameErr: func(string, string) error { return ErrInjectedEIO }},
	} {
		path := setup(t)
		check(t, path, WriteFile(fsys, path, []byte(next)))
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("failed %s left the temp file behind: %v", name, err)
		}
	}
	path := setup(t)
	if err := WriteFile(&InjectFS{}, path, []byte(next)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != next {
		t.Fatalf("after a clean write: %q, %v; want the new content", got, err)
	}
}
