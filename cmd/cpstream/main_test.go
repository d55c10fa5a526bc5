package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spstream"
)

// TestMain lets a test re-execute this binary as cpstream itself
// (CPSTREAM_ARGS holds the command line) to observe exit codes.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CPSTREAM_ARGS"); ok {
		os.Args = append([]string{"cpstream"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

func writeTestTNS(t *testing.T) string {
	t.Helper()
	tensor := spstream.NewTensor(5, 6, 3)
	tensor.Append([]int32{0, 1, 0}, 1.5)
	tensor.Append([]int32{4, 5, 2}, 2.5)
	tensor.Append([]int32{2, 3, 1}, 3.5)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := spstream.SaveTNS(path, tensor); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadStreamFromFile(t *testing.T) {
	path := writeTestTNS(t)
	s, err := loadStream(path, 2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.T() != 3 || len(s.Dims) != 2 {
		t.Fatalf("stream shape: T=%d dims=%v", s.T(), s.Dims)
	}
}

func TestLoadStreamFromPreset(t *testing.T) {
	s, err := loadStream("", -1, "uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s.T() < 5 {
		t.Fatalf("preset stream too short: %d", s.T())
	}
}

func TestLoadStreamErrors(t *testing.T) {
	if _, err := loadStream("", -1, "", 0); err == nil {
		t.Fatal("no input accepted")
	}
	if _, err := loadStream("x.tns", 0, "uber", 1); err == nil {
		t.Fatal("both inputs accepted")
	}
	if _, err := loadStream(writeTestTNS(t), -1, "", 0); err == nil {
		t.Fatal("missing streammode accepted")
	}
	if _, err := loadStream(filepath.Join(t.TempDir(), "missing.tns"), 0, "", 0); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := loadStream("", -1, "bogus", 1); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

// runArgs drives run the way the shell would: flags in, stdout out.
func runArgs(t *testing.T, ctx context.Context, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(ctx, &out, parseFlags(args))
	return out.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("cpstream %v: %v\n%s", args, err, out)
	}
	return out
}

// The stream every run test uses, as flags.
var uber = []string{"-preset", "uber", "-scale", "0.05", "-rank", "4", "-fit"}

// writeBlocks writes the uber test stream as one .spblk file per slice,
// each a single block: the writer orders nonzeros by grid block, and
// only an unsplit slice keeps the generated order the resident run sums
// in (the order-sensitivity itself is core's TestStreamedMatchesInMemory).
func writeBlocks(t *testing.T) string {
	t.Helper()
	s, err := spstream.GeneratePreset("uber", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, x := range s.Slices {
		if err := spstream.WriteBlocks(filepath.Join(dir, fmt.Sprintf("slice-%03d.spblk", i)), x, 0); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// rows returns the per-slice rows of a run's output, each cut down to
// the fields every mode prints the same: slice nnz iters delta fit conv.
func rows(out string) (rows []string) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && strings.Trim(f[0], "0123456789") == "" {
			rows = append(rows, strings.Join(append(f[:5:5], f[len(f)-1]), " "))
		}
	}
	return rows
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunResidentAndBlockedAgree: one loop, one printer — the stream fed
// from memory and as .spblk files (unlimited budget) ends on the same
// factors, bit for bit, and prints the same rows bar the eval column.
func TestRunResidentAndBlockedAgree(t *testing.T) {
	dir := t.TempDir()
	fr, fb := filepath.Join(dir, "resident.txt"), filepath.Join(dir, "blocked.txt")
	resident := mustRun(t, append(uber, "-factors", fr)...)
	blocked := mustRun(t, "-input", writeBlocks(t), "-rank", "4", "-fit", "-factors", fb)
	r, b := rows(resident), rows(blocked)
	if len(r) < 5 || strings.Join(r, "\n") != strings.Join(b, "\n") {
		t.Fatalf("rows differ:\nresident\n%s\nblocked\n%s", resident, blocked)
	}
	if !strings.Contains(blocked, " eval ") || strings.Contains(resident, " eval ") {
		t.Fatalf("the eval column belongs to block input only:\n%s\n%s", resident, blocked)
	}
	if readFile(t, fr) != readFile(t, fb) {
		t.Fatal("resident and blocked runs wrote different factors")
	}
}

// TestRunStreamedShowsResidentShare: the eval column of a streamed slice
// says how much of it the budget kept resident — nothing under a budget
// no slice fits, all of it under one that is just short of the resident
// estimate — and the rows are the same either way.
func TestRunStreamedShowsResidentShare(t *testing.T) {
	in := writeBlocks(t)
	none := mustRun(t, "-input", in, "-rank", "4", "-fit", "-workers", "1", "-mem-budget", "1")
	all := mustRun(t, "-input", in, "-rank", "4", "-fit", "-workers", "1", "-mem-budget", "70000")
	if !strings.Contains(none, " streamed 0% ") || !strings.Contains(all, " streamed 100% ") || strings.Contains(all, "in-memory") {
		t.Fatalf("eval column:\nbudget 1\n%s\nbudget 70000\n%s", none, all)
	}
	if strings.Join(rows(none), "\n") != strings.Join(rows(all), "\n") {
		t.Fatalf("rows differ with the resident share:\n%s\n%s", none, all)
	}
}

// TestRunSlicesAndResume: -slices stops early, -checkpoint and
// -checkpoint-dir leave restorable state, and -resume from either picks
// the stream up where it stopped: 3 + 2 slices end where 5 do.
func TestRunSlicesAndResume(t *testing.T) {
	dir := t.TempDir()
	file, ckdir := filepath.Join(dir, "state.spstrm"), filepath.Join(dir, "ck")
	f5, f32, fdir := filepath.Join(dir, "f5"), filepath.Join(dir, "f32"), filepath.Join(dir, "fdir")

	straight := mustRun(t, append(uber, "-slices", "5", "-factors", f5)...)
	if n := len(rows(straight)); n != 5 {
		t.Fatalf("-slices 5 printed %d rows:\n%s", n, straight)
	}
	mustRun(t, append(uber, "-slices", "3", "-checkpoint", file, "-checkpoint-dir", ckdir, "-checkpoint-every", "2")...)
	for from, factors := range map[string]string{file: f32, ckdir: fdir} {
		out := mustRun(t, append(uber, "-resume", from, "-slices", "2", "-factors", factors)...)
		if !strings.Contains(out, "at slice 3\n") || strings.Join(rows(out), "\n") != strings.Join(rows(straight)[3:], "\n") {
			t.Fatalf("-resume %s did not continue at slice 3:\n%s\nstraight run:\n%s", from, out, straight)
		}
		if readFile(t, factors) != readFile(t, f5) {
			t.Fatalf("3 slices + 2 resumed from %s differ from 5 straight", from)
		}
	}
	if _, err := runArgs(t, context.Background(), append(uber, "-resume", filepath.Join(dir, "missing"))...); err == nil {
		t.Fatal("-resume from a missing path accepted")
	}
}

// cancelAt cancels a context when the row for a given slice is printed.
type cancelAt struct {
	bytes.Buffer
	row    string
	cancel context.CancelFunc
}

func (c *cancelAt) Write(p []byte) (int, error) {
	if strings.HasPrefix(strings.TrimSpace(string(p)), c.row+" ") {
		c.cancel()
	}
	return c.Buffer.Write(p)
}

// TestRunCancelLeavesCheckpoint: a cancelled context (SIGINT) stops the
// loop at a slice boundary and still leaves a restorable checkpoint at
// the last completed slice.
func TestRunCancelLeavesCheckpoint(t *testing.T) {
	ckdir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &cancelAt{row: "2", cancel: cancel}
	if err := run(ctx, out, parseFlags(append(uber, "-checkpoint-dir", ckdir, "-checkpoint-every", "100"))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "interrupted at slice 3;") || len(rows(out.String())) != 3 {
		t.Fatalf("want 3 rows and an interrupt at slice 3:\n%s", out.String())
	}
	resumed := mustRun(t, append(uber, "-resume", ckdir, "-slices", "1")...)
	if !strings.Contains(resumed, "at slice 3\n") {
		t.Fatalf("checkpoint after the interrupt is not at slice 3:\n%s", resumed)
	}
}

// TestRunPipelinedMatchesDirect: the pipelined mode is the same iterator
// feeding Offer — under backpressure (block) nothing is shed, and the run
// ends on the factors the direct loop ends on.
func TestRunPipelinedMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	fd, fp := filepath.Join(dir, "direct"), filepath.Join(dir, "pipelined")
	direct := mustRun(t, append(uber, "-slices", "6", "-factors", fd)...)
	piped := mustRun(t, append(uber, "-slices", "6", "-factors", fp, "-shed-policy", "block", "-checkpoint-dir", filepath.Join(dir, "ck"), "-checkpoint-every", "4")...)
	if strings.Join(rows(direct), "\n") != strings.Join(rows(piped), "\n") {
		t.Fatalf("rows differ:\ndirect\n%s\npipelined\n%s", direct, piped)
	}
	if readFile(t, fd) != readFile(t, fp) {
		t.Fatal("pipelined and direct runs wrote different factors")
	}
	// The pipeline owned the checkpoints: one due at t=4, the final at 6.
	if !strings.Contains(piped, "ckpt-000000006.spstrm") || !strings.Contains(piped, "produced=6 processed=6") {
		t.Fatalf("pipelined run did not checkpoint its last slice:\n%s", piped)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck", "ckpt-000000004.spstrm")); err != nil {
		t.Fatalf("no periodic checkpoint from the pipeline: %v", err)
	}
}

// TestRunRejectsBlockedIngestFlags: .spblk slices cannot ride the ingest
// pipeline, and every ingest flag used to be silently ignored with them.
// Each is refused with a one-line error, and the process exits 1.
func TestRunRejectsBlockedIngestFlags(t *testing.T) {
	blocks := writeBlocks(t)
	for _, flags := range [][]string{
		{"-shed-policy", "coalesce"}, {"-spill-dir", t.TempDir()}, {"-spill-max-bytes", "1024"},
		{"-spill-fsync-interval", "1s"}, {"-max-lag", "1s"}, {"-degrade"},
	} {
		out, err := runArgs(t, context.Background(), append([]string{"-input", blocks, "-rank", "4"}, flags...)...)
		if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), flags[0]) {
			t.Fatalf("%v with .spblk input: err = %v\n%s", flags, err, out)
		}
	}
	// The spill policy without a directory is refused in one place for
	// every front end: ingest.New.
	if _, err := runArgs(t, context.Background(), append(uber, "-shed-policy", "spill")...); err == nil || !strings.Contains(err.Error(), "spill directory") {
		t.Fatalf("-shed-policy spill without -spill-dir: err = %v", err)
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CPSTREAM_ARGS=-input "+blocks+" -degrade")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1", err)
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "cpstream: ") || strings.Count(msg, "\n") != 1 {
		t.Fatalf("want one line on stderr, got %q", msg)
	}
}
