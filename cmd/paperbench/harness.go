package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"spstream/internal/perfmodel"
	"spstream/internal/perfmodel/sim"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// paperThreads is the thread sweep of the paper's evaluation.
var paperThreads = []int{1, 7, 14, 28, 56}

// paperRanks is the rank sweep of the paper's evaluation.
var paperRanks = []int{16, 32, 64, 128}

// harness holds shared configuration and caches for the experiments.
type harness struct {
	mode       string
	scale      float64
	rank       int
	slices     int
	maxWorkers int
	out        io.Writer

	// csvDir, when non-empty, receives one <experiment>.csv per
	// experiment with the raw series (for plotting).
	csvDir string

	// benchJSON / benchCompare configure the bench experiment: the
	// output path for the results JSON and an optional committed
	// baseline to diff against (advisory). benchOnly restricts the grid
	// to a comma-separated subset of config names.
	benchJSON    string
	benchCompare string
	benchOnly    string

	// cmpOld / cmpNew are the two bench JSON files the benchcmp
	// experiment diffs.
	cmpOld string
	cmpNew string

	model    sim.Model
	modelOK  bool
	streams  map[string]*sptensor.Stream
	profiles map[string]perfmodel.SliceProfile
}

// writeCSV writes rows (with a header) to <csvDir>/<name>.csv; it is a
// no-op when csvDir is unset.
func (h *harness) writeCSV(name string, header []string, rows [][]string) error {
	if h.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(h.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(h.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (h *harness) validate() error {
	switch h.mode {
	case "model", "measure":
	default:
		return fmt.Errorf("unknown mode %q (want model or measure)", h.mode)
	}
	if h.scale <= 0 {
		return fmt.Errorf("scale must be positive")
	}
	if h.rank < 1 {
		return fmt.Errorf("rank must be ≥ 1")
	}
	return nil
}

func (h *harness) perfModel() sim.Model {
	if !h.modelOK {
		h.model = sim.PaperModel()
		h.modelOK = true
	}
	return h.model
}

// stream returns (and caches) the synthetic analogue of a dataset.
func (h *harness) stream(name string) (*sptensor.Stream, error) {
	if h.streams == nil {
		h.streams = map[string]*sptensor.Stream{}
	}
	if s, ok := h.streams[name]; ok {
		return s, nil
	}
	cfg, err := synth.Preset(name, h.scale)
	if err != nil {
		return nil, err
	}
	s, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	h.streams[name] = s
	return s, nil
}

// profile returns a mid-stream slice profile of a dataset analogue at
// paper scale (scale 1), regardless of the measurement scale: the
// performance model should see the paper-sized workload structure even
// when measured runs use a scaled-down stream. The single slice is
// generated directly (GenerateSlice), so this stays cheap.
func (h *harness) profile(name string) (perfmodel.SliceProfile, error) {
	if h.profiles == nil {
		h.profiles = map[string]perfmodel.SliceProfile{}
	}
	if p, ok := h.profiles[name]; ok {
		return p, nil
	}
	cfg, err := synth.Preset(name, 1)
	if err != nil {
		return perfmodel.SliceProfile{}, err
	}
	x, err := synth.GenerateSlice(cfg, cfg.T/2)
	if err != nil {
		return perfmodel.SliceProfile{}, err
	}
	p := perfmodel.Profile(x)
	h.profiles[name] = p
	return p, nil
}

// measureWorkers returns the worker sweep for measure mode.
func (h *harness) measureWorkers() []int {
	maxW := h.maxWorkers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	var out []int
	for w := 1; w <= maxW; w *= 2 {
		out = append(out, w)
	}
	if out[len(out)-1] != maxW {
		out = append(out, maxW)
	}
	return out
}

func (h *harness) header(title, paper string) {
	fmt.Fprintf(h.out, "\n================================================================\n")
	fmt.Fprintf(h.out, "%s\n", title)
	fmt.Fprintf(h.out, "paper reference: %s\n", paper)
	fmt.Fprintf(h.out, "mode=%s scale=%g\n", h.mode, h.scale)
	fmt.Fprintf(h.out, "================================================================\n")
}

// itoa/ftoa are tiny formatting helpers for the CSV rows.
func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// bar renders a crude text bar for histogram-style output.
func bar(count, maxCount, width int) string {
	if maxCount == 0 {
		return ""
	}
	n := count * width / maxCount
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
