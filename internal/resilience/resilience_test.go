package resilience

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Abort, RetrySlice, SkipSlice} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxDelta != 1e9 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	// Explicit settings survive.
	c = Config{MaxDelta: 7}.WithDefaults()
	if c.MaxDelta != 7 {
		t.Errorf("explicit settings clobbered: %+v", c)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing write callback must leave the previous content intact
	// and no temp litter behind.
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("garbage"))
		return errors.New("simulated crash")
	}); err == nil {
		t.Fatal("error from the write callback was swallowed")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v1" {
		t.Fatalf("content after failed write: %q, %v", data, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(entries))
	}
}

// fakeState is a trivial StateWriter whose payload identifies the
// version written.
type fakeState struct{ payload string }

func (f fakeState) SaveState(w io.Writer) error {
	_, err := io.WriteString(w, f.payload)
	return err
}

func TestManagerWritePruneRestore(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interval: t=1 skipped, t=2 and t=4 and t=6 written, keep=2 prunes
	// the oldest.
	for tt := 1; tt <= 6; tt++ {
		path, err := m.MaybeWrite(tt, fakeState{fmt.Sprintf("state-%d", tt)})
		if err != nil {
			t.Fatal(err)
		}
		if (tt%2 == 0) != (path != "") {
			t.Errorf("t=%d: path %q", tt, path)
		}
	}
	cks := m.Checkpoints()
	if len(cks) != 2 {
		t.Fatalf("kept %d checkpoints, want 2", len(cks))
	}
	if filepath.Base(cks[0]) != "ckpt-000000006.spstrm" || filepath.Base(cks[1]) != "ckpt-000000004.spstrm" {
		t.Fatalf("checkpoints not newest-first: %v", cks)
	}

	// RestoreLatest walks newest-first and skips invalid files.
	restored := ""
	rejectNewest := func(r io.Reader) error {
		b, _ := io.ReadAll(r)
		if string(b) == "state-6" {
			return errors.New("corrupt")
		}
		restored = string(b)
		return nil
	}
	path, err := m.RestoreLatest(rejectNewest)
	if err != nil {
		t.Fatal(err)
	}
	if restored != "state-4" || filepath.Base(path) != "ckpt-000000004.spstrm" {
		t.Fatalf("restored %q from %q", restored, path)
	}

	// All candidates invalid → ErrNoCheckpoint.
	_, err = m.RestoreLatest(func(io.Reader) error { return errors.New("bad") })
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
	// Empty dir → ErrNoCheckpoint too.
	_, err = RestoreNewest(t.TempDir(), func(io.Reader) error { return nil })
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestListCheckpointsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ckpt-000000003.spstrm", "notes.txt", "ckpt-junk.spstrm", "ckpt-000000010.spstrm.tmp-x"} {
		os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644)
	}
	cks := ListCheckpoints(dir)
	if len(cks) != 1 || filepath.Base(cks[0]) != "ckpt-000000003.spstrm" {
		t.Fatalf("ListCheckpoints = %v", cks)
	}
}

// TestNewManagerSweepsStaleTemps: a crash between AtomicWriteFile's
// temp write and its rename leaves a hidden ".…tmp-*" orphan; the next
// startup must delete it without touching real checkpoints or foreign
// files.
func TestNewManagerSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".ckpt-000000007.spstrm.tmp-1234567")
	if err := os.WriteFile(stale, []byte("half-written checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	keep := []string{"ckpt-000000003.spstrm", "notes.txt"}
	for _, name := range keep {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewManager(dir, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the startup sweep (stat err: %v)", err)
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("sweep deleted %s: %v", name, err)
		}
	}
}
