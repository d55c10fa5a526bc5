package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// newTestHarness builds a harness writing into a buffer at a small
// measurement scale.
func newTestHarness(mode string) (*harness, *bytes.Buffer) {
	var buf bytes.Buffer
	return &harness{
		mode:       mode,
		scale:      0.05,
		rank:       16,
		slices:     1,
		maxWorkers: 1,
		out:        &buf,
	}, &buf
}

func TestValidate(t *testing.T) {
	h, _ := newTestHarness("model")
	if err := h.validate(); err != nil {
		t.Fatal(err)
	}
	h.mode = "bogus"
	if err := h.validate(); err == nil {
		t.Fatal("bogus mode accepted")
	}
	h.mode = "model"
	h.scale = 0
	if err := h.validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
	h.scale = 1
	h.rank = 0
	if err := h.validate(); err == nil {
		t.Fatal("zero rank accepted")
	}
}

func TestTable1Output(t *testing.T) {
	h, buf := newTestHarness("model")
	if err := h.table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"solve", "project", "update", "error", "BF total", "31.8%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	h, buf := newTestHarness("model")
	if err := h.table2(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"patents", "flickr", "uber", "nips", "3.5B nnz"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table2 output missing %q", want)
		}
	}
}

func TestFig1Output(t *testing.T) {
	h, buf := newTestHarness("model")
	if err := h.fig1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode 1") || !strings.Contains(out, "zero rows") {
		t.Fatalf("fig1 output malformed:\n%.400s", out)
	}
}

func TestModelFigures(t *testing.T) {
	// The model-mode figures share the paper-scale profile cache, so a
	// single harness exercises them all.
	h, buf := newTestHarness("model")
	for name, fn := range map[string]func() error{
		"fig2": h.fig2, "fig4": h.fig4, "fig6": h.fig6, "fig7": h.fig7, "fig8": h.fig8,
	} {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "spCP") {
		t.Fatal("model figures missing expected columns")
	}
	// Every thread count of the paper sweep appears.
	for _, p := range []string{"       1", "      56"} {
		if !strings.Contains(out, p) {
			t.Fatalf("thread sweep missing %q", p)
		}
	}
}

func TestMeasureFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments are slow")
	}
	h, buf := newTestHarness("measure")
	if err := h.fig4(); err != nil {
		t.Fatal(err)
	}
	if err := h.fig8(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "workers") || !strings.Contains(out, "spcp-stream") {
		t.Fatalf("measured output malformed:\n%.300s", out)
	}
}

func TestEstimateADMMIters(t *testing.T) {
	h, _ := newTestHarness("model")
	iters, err := h.estimateADMMIters()
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 || iters > 100 {
		t.Fatalf("implausible ADMM iteration estimate %d", iters)
	}
}

func TestMeasureWorkersSweep(t *testing.T) {
	h, _ := newTestHarness("measure")
	h.maxWorkers = 8
	ws := h.measureWorkers()
	if ws[0] != 1 || ws[len(ws)-1] != 8 {
		t.Fatalf("worker sweep %v", ws)
	}
	h.maxWorkers = 6
	ws = h.measureWorkers()
	if ws[len(ws)-1] != 6 {
		t.Fatalf("worker sweep %v should end at cap", ws)
	}
}

func TestBar(t *testing.T) {
	if bar(5, 10, 10) != "#####" {
		t.Fatalf("bar = %q", bar(5, 10, 10))
	}
	if bar(1, 0, 10) != "" {
		t.Fatal("zero max should render empty")
	}
}

func TestCSVExport(t *testing.T) {
	h, _ := newTestHarness("model")
	h.csvDir = t.TempDir()
	if err := h.fig4(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(h.csvDir + "/fig4.csv")
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "rank,threads,baseline_s,hl_s,speedup") {
		t.Fatalf("csv header wrong: %.80s", out)
	}
	// 2 ranks × 5 thread counts + header = 11 lines.
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 10 {
		t.Fatalf("csv has %d data rows", lines)
	}
}

func TestFitLogParity(t *testing.T) {
	h, buf := newTestHarness("model")
	h.slices = 2
	if err := h.fitlog(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "WARNING") {
		t.Fatalf("fit parity violated:\n%s", out)
	}
	if !strings.Contains(out, "parity holds") {
		t.Fatalf("fitlog missing parity verdict:\n%.300s", out)
	}
}

func TestCrossoverMonotone(t *testing.T) {
	h, buf := newTestHarness("model")
	h.csvDir = t.TempDir()
	if err := h.crossover(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(h.csvDir + "/crossover.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few crossover rows: %d", len(lines))
	}
	// The N/O gain (last column) must grow monotonically with dim.
	prev := 0.0
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		var gain float64
		if _, err := fmt.Sscanf(cols[len(cols)-1], "%g", &gain); err != nil {
			t.Fatal(err)
		}
		if gain < prev {
			t.Fatalf("crossover gain not monotone:\n%s", buf.String())
		}
		prev = gain
	}
}

func TestCalibrateRuns(t *testing.T) {
	h, buf := newTestHarness("model")
	if err := h.calibrate(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mttkrp-lock", "admm-bf/iter", "meas/model"} {
		if !strings.Contains(out, want) {
			t.Fatalf("calibrate output missing %q", want)
		}
	}
}
