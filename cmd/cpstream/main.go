// Command cpstream runs a streaming CP decomposition over a sparse
// tensor, slice by slice, printing per-slice convergence and timing.
//
// The input is a FROSTT .tns file (with -input and -streammode
// selecting the temporal mode), a built-in synthetic dataset analogue
// (-preset with -scale), or block-partitioned .spblk slices — a single
// file or a directory of them, processed out of core under -mem-budget
// (see cmd/spblk for the converter).
//
// The flags cpstream shares with watch and spstreamd are registered
// once, by serve.Config's Flags and GuardFlags, and its run is built
// the way theirs is: serve.NewDecomposer restores the newest valid
// checkpoint in -checkpoint-dir at startup, cpstream skips the slices
// it holds, and every slice runs guarded, under -on-error (abort by
// default) and -slice-timeout. Any of -shed-policy, -max-lag,
// -spill-dir or -degrade routes resident slices through the bounded
// ingest pipeline of serve.NewPipeline; .spblk slices cannot ride it,
// and the combination is rejected.
//
// Examples:
//
//	cpstream -preset nips -scale 0.2 -rank 16 -alg spcp
//	cpstream -input data.tns -streammode 3 -rank 32 -alg optimized -nonneg
//	cpstream -preset flickr -rank 16 -alg optimized -breakdown
//	cpstream -input slices/ -mem-budget 67108864 -rank 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spstream"
	"spstream/internal/perfmodel"
	"spstream/internal/serve"
	"spstream/internal/trace"
	"spstream/internal/version"
)

// config is the parsed flag set: a serve.Config and cpstream's own
// flags. run takes it whole so tests drive the command without a process.
type config struct {
	serve.Config
	// what to decompose
	input, preset string
	streamMode    int
	scale         float64
	maxSlices     int
	// constraints
	nonneg bool
	l1     float64
	// what to print and write
	breakdown, showVer     bool
	factorsOut             string
	cpuprofile, memprofile string
	// the ingest pipeline: piped is set when a flag arms it
	degrade, piped bool
}

// newFlags binds every cpstream flag to a config that holds the defaults.
func newFlags() (*config, *flag.FlagSet) {
	c := &config{Config: serve.Config{
		Options:         spstream.Options{Rank: 16, Algorithm: spstream.Optimized, Mu: 0.99, Tol: 1e-5, MaxIters: 20, Seed: 1},
		DrainTimeout:    30 * time.Second,
		CheckpointEvery: 10,
		CheckpointKeep:  2,
	}, streamMode: -1, scale: 0.2}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	c.Flags(fs)
	c.GuardFlags(fs)
	o := &c.Options
	fs.StringVar(&c.input, "input", "", "FROSTT .tns input file")
	fs.IntVar(&c.streamMode, "streammode", c.streamMode, "streaming (time) mode index of the input tensor, 0-based")
	fs.StringVar(&c.preset, "preset", "", "synthetic preset: patents, flickr, uber, nips")
	fs.Float64Var(&c.scale, "scale", c.scale, "synthetic preset scale")
	fs.Float64Var(&o.Tol, "tol", o.Tol, "outer convergence tolerance")
	fs.IntVar(&o.MaxIters, "maxiters", o.MaxIters, "max inner iterations per slice")
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel workers (0 = GOMAXPROCS)")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "factor initialization seed")
	fs.BoolVar(&c.nonneg, "nonneg", false, "apply a non-negativity constraint (ADMM)")
	fs.Float64Var(&c.l1, "l1", 0, "apply an L1 sparsity constraint with this weight (ADMM)")
	fs.Int64Var(&o.MemBudget, "mem-budget", 0, "resident-memory budget in bytes per slice; block (.spblk) slices whose modeled working set exceeds it are processed out of core (0 = unconstrained)")
	fs.BoolVar(&c.breakdown, "breakdown", false, "print the per-phase time breakdown at the end")
	fs.IntVar(&c.maxSlices, "slices", 0, "process at most this many slices (0 = all)")
	fs.StringVar(&c.factorsOut, "factors", "", "write final factor matrices to this file")
	fs.BoolVar(&c.degrade, "degrade", false, "degrade model quality under sustained overload (enables the ingest pipeline)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&c.showVer, "version", false, "print version/build information and exit")
	return c, fs
}

func parseFlags(args []string) config {
	c, fs := newFlags()
	fs.Parse(args) // ExitOnError

	// The arming rule of the package doc. -shed-policy arms the pipeline
	// by being given at all (block is the zero value); the flag set knows
	// it by the field it is bound to.
	c.piped = c.MaxLag > 0 || c.degrade || c.SpillDir != ""
	fs.Visit(func(f *flag.Flag) {
		if f.Value.(flag.Getter).Get() == &c.Policy {
			c.piped = true
		}
	})
	return *c
}

func main() {
	cfg := parseFlags(os.Args[1:])
	if cfg.showVer {
		fmt.Println("cpstream", version.String())
		return
	}
	// SIGINT/SIGTERM cancel the stream at the next iteration boundary;
	// the decomposer is then still consistent and checkpointable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := profiled(cfg, func() error { return run(ctx, os.Stdout, cfg) }); err != nil {
		fmt.Fprintln(os.Stderr, "cpstream:", err)
		os.Exit(1)
	}
}

// profiled wraps the run in the -cpuprofile / -memprofile captures. The
// CPU profile is flushed on the error path too: a truncated-but-valid
// profile of a failed run is still a profile.
func profiled(cfg config, run func() error) error {
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(); err != nil || cfg.memprofile == "" {
		return err
	}
	f, err := os.Create(cfg.memprofile)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("heap profile written to %s\n", cfg.memprofile)
	return f.Close()
}

// input is the stream a run consumes, one slice per next call: resident
// tensors (a .tns file or a preset), or .spblk files that are opened
// only while they are solved, block by block under the memory budget.
type input struct {
	dims  []int
	t     int                  // slices in the stream
	desc  string               // what the header says about it
	src   spstream.SliceSource // resident …
	paths []string             // … or block files
}

func openInput(c config) (*input, error) {
	paths, err := spblkInputs(c.input)
	if err != nil {
		return nil, err
	}
	if paths == nil {
		stream, err := loadStream(c.input, c.streamMode, c.preset, c.scale)
		if err != nil {
			return nil, err
		}
		return &input{dims: stream.Dims, t: stream.T(), desc: fmt.Sprintf("nnz=%d", stream.NNZ()), src: stream.Source()}, nil
	}
	if c.piped || c.SpillMaxBytes != 0 || c.SpillFsyncInterval != 0 || c.MaxLag != 0 {
		return nil, errors.New(".spblk input cannot take the ingest flags (-shed-policy, -spill-dir, -spill-max-bytes, -spill-fsync-interval, -max-lag, -degrade): the pipeline carries resident slices")
	}
	probe, err := spstream.OpenBlocks(paths[0])
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	return &input{dims: append([]int(nil), probe.Dims()...), t: len(paths), desc: fmt.Sprintf("blocked input mem-budget=%d", c.Options.MemBudget), paths: paths}, nil
}

// next returns the next slice: a resident tensor, or the path of a block
// file; ok is false at the end of the stream.
func (in *input) next() (x *spstream.Tensor, path string, ok bool) {
	if in.paths != nil {
		if len(in.paths) == 0 {
			return nil, "", false
		}
		path, in.paths = in.paths[0], in.paths[1:]
		return nil, path, true
	}
	x = in.src.Next()
	return x, "", x != nil
}

// solve runs one slice through the decomposer, from memory or from its
// block file.
func solve(ctx context.Context, dec *spstream.Decomposer, x *spstream.Tensor, path string) (spstream.SliceResult, error) {
	if path == "" {
		return dec.ProcessSliceContext(ctx, x)
	}
	r, err := spstream.OpenBlocks(path)
	if err != nil {
		return spstream.SliceResult{}, fmt.Errorf("%s: %w", path, err)
	}
	defer r.Close()
	res, err := dec.ProcessBlockSliceContext(ctx, r)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return res, err
}

// table prints the per-slice rows; eval adds the column that says how a
// block slice was evaluated: in-memory, or streamed with the share of
// its (mode, block) pairs — in bytes — the budget kept resident between
// passes.
type table struct {
	w    io.Writer
	eval bool
}

func (t table) line(slice, nnz, iters, delta, fit, elapsed, eval, conv string) {
	if t.eval { // one more right-aligned column, between time and conv
		elapsed = fmt.Sprintf("%10s %13s", elapsed, eval)
	}
	fmt.Fprintf(t.w, "%6s %10s %6s %12s %10s %10s %8s\n", slice, nnz, iters, delta, fit, elapsed, conv)
}

func (t table) row(res spstream.SliceResult, elapsed, eval string) {
	conv := strconv.FormatBool(res.Converged)
	if res.Skipped {
		conv = "skipped"
	}
	t.line(strconv.Itoa(res.T), strconv.Itoa(res.NNZ), strconv.Itoa(res.Iters), fmt.Sprintf("%.6g", res.Delta), fmt.Sprintf("%.4f", res.Fit), elapsed, eval, conv)
}

// run is the whole command behind the flags: open the input, build the
// run the way serve does (the decomposer, restored from -checkpoint-dir,
// and with an ingest flag the pipeline over it), solve slice by slice —
// directly, or by offering the same slices to the pipeline — and write
// what the flags ask for.
func run(ctx context.Context, w io.Writer, cfg config) error {
	opt := &cfg.Options
	switch {
	case cfg.nonneg && cfg.l1 > 0:
		return errors.New("choose one of -nonneg and -l1")
	case cfg.nonneg:
		opt.Constraint = spstream.NonNeg()
	case cfg.l1 > 0:
		opt.Constraint = spstream.L1(cfg.l1)
	}
	in, err := openInput(cfg)
	if err != nil {
		return err
	}
	cfg.Dims = in.dims
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	tbl := table{w: w, eval: in.paths != nil}
	var dec *spstream.Decomposer
	var p *spstream.IngestPipeline
	if cfg.piped {
		// Overload-robust path: the slices go through the bounded ingest
		// pipeline, which also owns checkpointing for the run.
		dec, p, err = serve.NewPipeline(cfg.Config, spstream.IngestConfig{
			Degrade:  cfg.degrade,
			OnResult: func(res spstream.SliceResult) { tbl.row(res, "-", "") },
			OnError:  func(err error) { fmt.Fprintf(os.Stderr, "cpstream: %v\n", err) },
		})
	} else {
		dec, err = serve.NewDecomposer(cfg.Config)
	}
	if err != nil {
		return err
	}
	if dec.T() > 0 {
		fmt.Fprintf(w, "continuing at slice %d\n", dec.T())
		for skipped := 0; skipped < dec.T(); skipped++ {
			if _, _, ok := in.next(); !ok {
				if p != nil {
					p.Drain(context.Background())
				}
				return fmt.Errorf("checkpoint is at slice %d but the stream has only %d", dec.T(), skipped)
			}
		}
	}
	effWorkers := opt.Workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	alg, _ := opt.Algorithm.MarshalText() // parsed from the flag: always valid
	fmt.Fprintf(w, "cpstream: dims=%v T=%d %s rank=%d alg=%s workers=%d\n", in.dims, in.t, in.desc, opt.Rank, alg, effWorkers)
	tbl.line("slice", "nnz", "iters", "delta", "fit", "time", "eval", "conv")
	if p != nil {
		// The signal stops admissions; the backlog still drains
		// (bounded by -drain-timeout).
		p.Start(context.Background())
	}

	mgr := dec.Checkpoints()
	processed, interrupted := 0, false
	totalStart := time.Now()
	for taken := 0; cfg.maxSlices <= 0 || taken < cfg.maxSlices; taken++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		x, path, ok := in.next()
		if !ok {
			break
		}
		if p != nil {
			if p.Offer(x) != nil {
				break
			}
			continue
		}
		start := time.Now()
		res, err := solve(ctx, dec, x, path)
		switch {
		case err == nil:
		case errors.Is(err, spstream.ErrSliceSkipped):
			fmt.Fprintf(os.Stderr, "cpstream: %v\n", err)
		case errors.Is(err, context.Canceled):
			interrupted = true
		default:
			return err
		}
		if interrupted {
			break
		}
		eval := ""
		if path != "" {
			if eval = dec.LastEvalMode().String(); dec.LastEvalMode() == perfmodel.EvalStreamed {
				eval = fmt.Sprintf("%s %.0f%%", eval, 100*dec.LastResidency().Share())
			}
		}
		tbl.row(res, time.Since(start).Round(time.Microsecond).String(), eval)
		processed++
		if mgr != nil && !res.Skipped {
			if _, err := mgr.MaybeWrite(dec.T(), dec); err != nil {
				fmt.Fprintf(os.Stderr, "cpstream: checkpoint: %v\n", err)
			}
		}
	}
	if p != nil {
		snap := p.Drain(context.Background())
		processed = int(snap.Processed)
		fmt.Fprintf(w, "ingest: %s\n", snap.String())
	}

	fmt.Fprintf(w, "total: %d slices in %s\n", processed, time.Since(totalStart).Round(time.Millisecond))
	if interrupted {
		fmt.Fprintf(w, "interrupted at slice %d; state is consistent at the last completed slice\n", dec.T())
	}
	st := dec.ResilienceStats()
	fmt.Fprintf(w, "resilience: retries=%d skips=%d rollbacks=%d ridge-recoveries=%d panics=%d rejects=%d timeouts=%d\n",
		st.SliceRetries, st.SlicesSkipped, st.Rollbacks, st.RidgeRecoveries, st.PanicsRecovered, st.InputRejects, st.Timeouts)
	if cfg.breakdown {
		bd := dec.Breakdown()
		per := bd.PerIter()
		fmt.Fprintf(w, "\nper-iteration phase breakdown (%d inner iterations):\n", bd.Iters)
		for ph := 0; ph < trace.NumPhases; ph++ {
			fmt.Fprintf(w, "  %-12s %v\n", trace.Phase(ph), per[ph].Round(time.Microsecond))
		}
	}
	if cfg.factorsOut != "" {
		if err := spstream.SaveFactors(cfg.factorsOut, dec); err != nil {
			return err
		}
		fmt.Fprintf(w, "factors written to %s\n", cfg.factorsOut)
	}
	// A final checkpoint survives interrupts too: the state is the last
	// completed slice either way. The pipeline's Drain wrote its own.
	if mgr != nil && dec.T() > 0 {
		if p == nil {
			if _, err := mgr.Write(dec.T(), dec); err != nil {
				fmt.Fprintf(os.Stderr, "cpstream: final checkpoint: %v\n", err)
			}
		}
		if cks := mgr.Checkpoints(); len(cks) > 0 && cks[0] == mgr.Path(dec.T()) {
			fmt.Fprintf(w, "checkpoint written to %s\n", cks[0])
		}
	}
	return nil
}

// spblkInputs resolves -input to a list of block-slice files: a single
// .spblk file is one slice, a directory holding .spblk files is a
// stream of slices in name order. Any other input returns (nil, nil)
// and falls through to the .tns / preset path.
func spblkInputs(input string) ([]string, error) {
	if input == "" {
		return nil, nil
	}
	if strings.HasSuffix(input, ".spblk") {
		return []string{input}, nil
	}
	info, err := os.Stat(input)
	if err != nil || !info.IsDir() {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(input, "*.spblk"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("directory %s holds no .spblk files", input)
	}
	sort.Strings(paths)
	return paths, nil
}

func loadStream(input string, streamMode int, preset string, scale float64) (*spstream.Stream, error) {
	switch {
	case input != "" && preset != "":
		return nil, fmt.Errorf("choose one of -input and -preset")
	case input != "":
		if streamMode < 0 {
			return nil, fmt.Errorf("-streammode is required with -input")
		}
		t, err := spstream.LoadTNS(input)
		if err != nil {
			return nil, err
		}
		return spstream.SplitStream(t, streamMode)
	case preset != "":
		return spstream.GeneratePreset(preset, scale)
	default:
		return nil, fmt.Errorf("one of -input or -preset is required")
	}
}
