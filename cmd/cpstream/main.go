// Command cpstream runs a streaming CP decomposition over a sparse
// tensor, slice by slice, printing per-slice convergence and timing.
//
// The input is a FROSTT .tns file (with -input and -streammode
// selecting the temporal mode), a built-in synthetic dataset analogue
// (-preset with -scale), or block-partitioned .spblk slices — a single
// file or a directory of them, processed out of core under -mem-budget
// (see cmd/spblk for the converter).
//
// Examples:
//
//	cpstream -preset nips -scale 0.2 -rank 16 -alg spcp
//	cpstream -input data.tns -streammode 3 -rank 32 -alg optimized -nonneg
//	cpstream -preset flickr -rank 16 -alg optimized -fit -breakdown
//	cpstream -input slices/ -mem-budget 67108864 -rank 16 -fit
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
	"strings"
	"syscall"
	"time"

	"spstream"
	"spstream/internal/resilience"
	"spstream/internal/trace"
	"spstream/internal/version"
)

// stopCPUProfile flushes an in-flight CPU profile; fatal() must call it
// because os.Exit skips deferred functions.
var stopCPUProfile func()

func main() {
	var (
		input      = flag.String("input", "", "FROSTT .tns input file")
		streamMode = flag.Int("streammode", -1, "streaming (time) mode index of the input tensor, 0-based")
		preset     = flag.String("preset", "", "synthetic preset: patents, flickr, uber, nips")
		scale      = flag.Float64("scale", 0.2, "synthetic preset scale")
		rank       = flag.Int("rank", 16, "decomposition rank K")
		alg        = flag.String("alg", "optimized", "algorithm: optimized, spcp")
		mu         = flag.Float64("mu", 0.99, "forgetting factor µ")
		tol        = flag.Float64("tol", 1e-5, "outer convergence tolerance")
		maxIters   = flag.Int("maxiters", 20, "max inner iterations per slice")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 1, "factor initialization seed")
		nonneg     = flag.Bool("nonneg", false, "apply a non-negativity constraint (ADMM)")
		l1         = flag.Float64("l1", 0, "apply an L1 sparsity constraint with this weight (ADMM)")
		memBudget  = flag.Int64("mem-budget", 0, "resident-memory budget in bytes per slice; block (.spblk) slices whose modeled working set exceeds it are processed out of core (0 = unconstrained)")
		fit        = flag.Bool("fit", false, "track per-slice fit (extra work)")
		breakdown  = flag.Bool("breakdown", false, "print the per-phase time breakdown at the end")
		maxSlices  = flag.Int("slices", 0, "process at most this many slices (0 = all)")
		factorsOut = flag.String("factors", "", "write final factor matrices to this file")
		checkpoint = flag.String("checkpoint", "", "write the decomposer state to this file after the run (atomic)")
		resume     = flag.String("resume", "", "restore the decomposer state before processing: a checkpoint file, or a directory (newest valid checkpoint wins)")
		ckptDir    = flag.String("checkpoint-dir", "", "write periodic crash-safe checkpoints into this directory")
		ckptEvery  = flag.Int("checkpoint-every", 10, "periodic checkpoint interval in slices (with -checkpoint-dir)")
		ckptKeep   = flag.Int("checkpoint-keep", 2, "periodic checkpoints retained (with -checkpoint-dir)")
		onError    = flag.String("on-error", "", "slice failure policy: abort, retry, skip (enables guarded processing)")
		sliceTmout = flag.Duration("slice-timeout", 0, "per-slice deadline (e.g. 30s; 0 = none)")
		shedPolicy = flag.String("shed-policy", "", "route slices through the bounded ingest pipeline with this full-queue policy: block, drop-newest, drop-oldest, coalesce, spill")
		spillDir   = flag.String("spill-dir", "", "durable backlog directory: queue overflow spills to a crash-safe WAL here and replays in order (implies -shed-policy spill)")
		spillMax   = flag.Int64("spill-max-bytes", 0, "cap on the on-disk spill backlog; 0 = unbounded (past the cap overflow is shed)")
		spillFsync = flag.Duration("spill-fsync-interval", 0, "WAL group-commit window — how much freshly spilled data a hard crash may lose (0 = fsync every slice)")
		maxLag     = flag.Duration("max-lag", 0, "shed slices older than this at solve time (enables the ingest pipeline; 0 = never)")
		degrade    = flag.Bool("degrade", false, "degrade model quality under sustained overload (enables the ingest pipeline)")
		drainTmout = flag.Duration("drain-timeout", 30*time.Second, "max time to flush the ingest backlog on shutdown")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		showVer    = flag.Bool("version", false, "print version/build information and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("cpstream", version.String())
		return
	}

	// SIGINT/SIGTERM cancel the stream at the next iteration boundary;
	// the decomposer is then still consistent and checkpointable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopCPUProfile()
	}

	opt := spstream.Options{
		Rank:      *rank,
		Mu:        *mu,
		Tol:       *tol,
		MaxIters:  *maxIters,
		Workers:   *workers,
		Seed:      *seed,
		TrackFit:  *fit,
		MemBudget: *memBudget,
	}
	var err error
	if opt.Algorithm, err = spstream.ParseAlgorithm(*alg); err != nil {
		fatal(err)
	}
	switch {
	case *nonneg && *l1 > 0:
		fatal(fmt.Errorf("choose one of -nonneg and -l1"))
	case *nonneg:
		opt.Constraint = spstream.NonNeg()
	case *l1 > 0:
		opt.Constraint = spstream.L1(*l1)
	}

	// Guarded processing: any of the resilience flags arms it.
	var rcfg *spstream.ResilienceConfig
	if *onError != "" || *ckptDir != "" || *sliceTmout > 0 {
		rcfg = &spstream.ResilienceConfig{SliceTimeout: *sliceTmout}
		if *onError != "" {
			pol, err := resilience.ParsePolicy(*onError)
			if err != nil {
				fatal(err)
			}
			rcfg.Policy = pol
		}
		if *ckptDir != "" {
			mgr, err := spstream.NewCheckpointManager(*ckptDir, *ckptEvery, *ckptKeep)
			if err != nil {
				fatal(err)
			}
			rcfg.Checkpoint = mgr
		}
		opt.Resilience = rcfg
	}

	// Block-partitioned (.spblk) inputs take the out-of-core path: each
	// file is one time slice, processed block by block under the memory
	// budget without ever materializing when it doesn't fit.
	if paths, err := spblkInputs(*input); err != nil {
		fatal(err)
	} else if paths != nil {
		runBlockInput(ctx, paths, opt, rcfg, *fit, *breakdown, *maxSlices, *factorsOut, *checkpoint, *resume)
		return
	}

	stream, err := loadStream(*input, *streamMode, *preset, *scale)
	if err != nil {
		fatal(err)
	}

	dec, err := spstream.New(stream.Dims, opt)
	if err != nil {
		fatal(err)
	}
	skip := 0
	if *resume != "" {
		from, err := restoreFrom(*resume, dec)
		if err != nil {
			fatal(err)
		}
		skip = dec.T()
		fmt.Printf("resumed from %s at slice %d\n", from, skip)
	}

	effWorkers := opt.Workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("cpstream: dims=%v T=%d nnz=%d rank=%d alg=%s workers=%d\n",
		stream.Dims, stream.T(), stream.NNZ(), *rank, *alg, effWorkers)
	fmt.Printf("%6s %10s %6s %12s %10s %10s %8s\n",
		"slice", "nnz", "iters", "delta", "fit", "time", "conv")

	src := stream.Source()
	processed := 0
	totalStart := time.Now()
	for skipped := 0; skipped < skip; skipped++ {
		if src.Next() == nil {
			fatal(fmt.Errorf("resume state is at slice %d but the stream has only %d", skip, skipped))
		}
	}
	interrupted := false
	if *shedPolicy != "" || *maxLag > 0 || *degrade || *spillDir != "" {
		// Overload-robust path: slices go through the bounded ingest
		// pipeline instead of the direct loop.
		policy := spstream.ShedBlock
		if *shedPolicy != "" {
			policy, err = spstream.ParseShedPolicy(*shedPolicy)
			if err != nil {
				fatal(err)
			}
		}
		if policy == spstream.ShedSpill && *spillDir == "" {
			fatal(fmt.Errorf("-shed-policy spill requires -spill-dir"))
		}
		var p *spstream.IngestPipeline
		pcfg := spstream.IngestConfig{
			Policy:       policy,
			MaxLag:       *maxLag,
			DrainTimeout: *drainTmout,
			OnResult: func(res spstream.SliceResult) {
				fitStr := "-"
				if *fit {
					fitStr = fmt.Sprintf("%.4f", res.Fit)
				}
				fmt.Printf("%6d %10d %6d %12.6g %10s %10s %8v\n",
					res.T, res.NNZ, res.Iters, res.Delta, fitStr, "-", res.Converged)
				if rcfg != nil && rcfg.Checkpoint != nil {
					// Consumer goroutine: the decomposer is quiescent
					// between slices here. Durably bind the spill offset
					// BEFORE the checkpoint that depends on it.
					t := dec.T()
					if t > 0 && t%*ckptEvery == 0 {
						if err := p.SpillMark(t); err != nil {
							fmt.Fprintf(os.Stderr, "cpstream: spill offset: %v\n", err)
						}
					}
					if _, err := rcfg.Checkpoint.MaybeWrite(t, dec); err != nil {
						fmt.Fprintf(os.Stderr, "cpstream: checkpoint: %v\n", err)
					}
				}
			},
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "cpstream: %v\n", err)
			},
		}
		if *degrade {
			pcfg.Degrade = &spstream.DegradeConfig{MaxLag: *maxLag}
		}
		if *spillDir != "" {
			pcfg.Policy = spstream.ShedSpill
			pcfg.Spill = &spstream.SpillConfig{
				Dir:           *spillDir,
				MaxBytes:      *spillMax,
				FsyncInterval: *spillFsync,
				// Replay resumes after the slices folded into the resumed
				// state; a fresh start replays the whole backlog.
				ReplayFrom: dec.T(),
			}
		}
		p, err = spstream.NewIngestPipeline(dec, pcfg)
		if err != nil {
			fatal(err)
		}
		if pcfg.Spill != nil {
			if n := p.Stats().SpillRecovered; n > 0 {
				fmt.Printf("spill: recovered %d durable backlog slices (replay bound to t=%d)\n", n, pcfg.Spill.ReplayFrom)
			}
		}
		// The signal stops admissions; the backlog still drains
		// (bounded by -drain-timeout).
		p.Start(context.Background())
		offered := 0
		for {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			x := src.Next()
			if x == nil {
				break
			}
			if *maxSlices > 0 && offered >= *maxSlices {
				break
			}
			if err := p.Offer(x); err != nil {
				break
			}
			offered++
		}
		snap := p.Drain(context.Background())
		processed = int(snap.Processed)
		fmt.Printf("ingest: %s\n", snap.String())
	} else {
		for {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			x := src.Next()
			if x == nil {
				break
			}
			if *maxSlices > 0 && processed >= *maxSlices {
				break
			}
			start := time.Now()
			res, err := dec.ProcessSliceContext(ctx, x)
			switch {
			case err == nil:
			case errors.Is(err, spstream.ErrSliceSkipped):
				fmt.Fprintf(os.Stderr, "cpstream: %v\n", err)
			case errors.Is(err, context.Canceled):
				interrupted = true
			default:
				fatal(err)
			}
			if interrupted {
				break
			}
			elapsed := time.Since(start)
			fitStr := "-"
			if *fit {
				fitStr = fmt.Sprintf("%.4f", res.Fit)
			}
			status := fmt.Sprintf("%v", res.Converged)
			if res.Skipped {
				status = "skipped"
			}
			fmt.Printf("%6d %10d %6d %12.6g %10s %10s %8s\n",
				res.T, res.NNZ, res.Iters, res.Delta, fitStr, elapsed.Round(time.Microsecond), status)
			processed++
			if rcfg != nil && rcfg.Checkpoint != nil && !res.Skipped {
				if _, err := rcfg.Checkpoint.MaybeWrite(dec.T(), dec); err != nil {
					fmt.Fprintf(os.Stderr, "cpstream: checkpoint: %v\n", err)
				}
			}
		}
	}
	fmt.Printf("total: %d slices in %s\n", processed, time.Since(totalStart).Round(time.Millisecond))
	if interrupted {
		fmt.Printf("interrupted at slice %d; state is consistent at the last completed slice\n", dec.T())
	}
	if rcfg != nil {
		st := dec.ResilienceStats()
		fmt.Printf("resilience: retries=%d skips=%d rollbacks=%d ridge-recoveries=%d panics=%d rejects=%d timeouts=%d sheds=%d coalesced=%d stale=%d drained=%d\n",
			st.SliceRetries, st.SlicesSkipped, st.Rollbacks, st.RidgeRecoveries, st.PanicsRecovered, st.InputRejects, st.Timeouts,
			st.OverloadSheds, st.OverloadCoalesced, st.StaleSheds, st.DrainedSlices)
	}

	if *breakdown {
		bd := dec.Breakdown()
		per := bd.PerIter()
		fmt.Printf("\nper-iteration phase breakdown (%d inner iterations):\n", bd.Iters)
		for ph := 0; ph < trace.NumPhases; ph++ {
			fmt.Printf("  %-12s %v\n", trace.Phase(ph), per[ph].Round(time.Microsecond))
		}
	}
	if *factorsOut != "" {
		if err := spstream.SaveFactors(*factorsOut, dec); err != nil {
			fatal(err)
		}
		fmt.Printf("factors written to %s\n", *factorsOut)
	}
	// A final checkpoint survives interrupts too: the state is the
	// last completed slice either way.
	if rcfg != nil && rcfg.Checkpoint != nil && dec.T() > 0 {
		if path, err := rcfg.Checkpoint.Write(dec.T(), dec); err != nil {
			fmt.Fprintf(os.Stderr, "cpstream: final checkpoint: %v\n", err)
		} else {
			fmt.Printf("checkpoint written to %s\n", path)
		}
	}
	if *checkpoint != "" {
		if err := resilience.AtomicWriteFile(*checkpoint, dec.SaveState); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("heap profile written to %s\n", *memprofile)
	}
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

// runBlockInput processes a sequence of .spblk slice files out of core.
func runBlockInput(ctx context.Context, paths []string, opt spstream.Options, rcfg *spstream.ResilienceConfig,
	fit, breakdown bool, maxSlices int, factorsOut, checkpoint, resume string) {
	probe, err := spstream.OpenBlocks(paths[0])
	if err != nil {
		fatal(err)
	}
	dims := append([]int(nil), probe.Dims()...)
	probe.Close()

	dec, err := spstream.New(dims, opt)
	if err != nil {
		fatal(err)
	}
	skip := 0
	if resume != "" {
		from, err := restoreFrom(resume, dec)
		if err != nil {
			fatal(err)
		}
		skip = dec.T()
		fmt.Printf("resumed from %s at slice %d\n", from, skip)
	}
	effWorkers := opt.Workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("cpstream: dims=%v T=%d blocked input mem-budget=%d rank=%d workers=%d\n",
		dims, len(paths), opt.MemBudget, opt.Rank, effWorkers)
	fmt.Printf("%6s %10s %6s %12s %10s %10s %10s %8s\n",
		"slice", "nnz", "iters", "delta", "fit", "time", "eval", "conv")

	processed := 0
	interrupted := false
	totalStart := time.Now()
	for i, path := range paths {
		if i < skip {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if maxSlices > 0 && processed >= maxSlices {
			break
		}
		r, err := spstream.OpenBlocks(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		start := time.Now()
		res, err := dec.ProcessBlockSliceContext(ctx, r)
		r.Close()
		switch {
		case err == nil:
		case errors.Is(err, spstream.ErrSliceSkipped):
			fmt.Fprintf(os.Stderr, "cpstream: %v\n", err)
		case errors.Is(err, context.Canceled):
			interrupted = true
		default:
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if interrupted {
			break
		}
		elapsed := time.Since(start)
		fitStr := "-"
		if fit {
			fitStr = fmt.Sprintf("%.4f", res.Fit)
		}
		status := fmt.Sprintf("%v", res.Converged)
		if res.Skipped {
			status = "skipped"
		}
		fmt.Printf("%6d %10d %6d %12.6g %10s %10s %10s %8s\n",
			res.T, res.NNZ, res.Iters, res.Delta, fitStr,
			elapsed.Round(time.Microsecond), dec.LastEvalMode(), status)
		processed++
		if rcfg != nil && rcfg.Checkpoint != nil && !res.Skipped {
			if _, err := rcfg.Checkpoint.MaybeWrite(dec.T(), dec); err != nil {
				fmt.Fprintf(os.Stderr, "cpstream: checkpoint: %v\n", err)
			}
		}
	}
	fmt.Printf("total: %d slices in %s\n", processed, time.Since(totalStart).Round(time.Millisecond))
	if interrupted {
		fmt.Printf("interrupted at slice %d; state is consistent at the last completed slice\n", dec.T())
	}
	if rcfg != nil {
		st := dec.ResilienceStats()
		fmt.Printf("resilience: retries=%d skips=%d rollbacks=%d ridge-recoveries=%d panics=%d rejects=%d timeouts=%d\n",
			st.SliceRetries, st.SlicesSkipped, st.Rollbacks, st.RidgeRecoveries, st.PanicsRecovered, st.InputRejects, st.Timeouts)
	}
	if breakdown {
		bd := dec.Breakdown()
		per := bd.PerIter()
		fmt.Printf("\nper-iteration phase breakdown (%d inner iterations):\n", bd.Iters)
		for ph := 0; ph < trace.NumPhases; ph++ {
			fmt.Printf("  %-12s %v\n", trace.Phase(ph), per[ph].Round(time.Microsecond))
		}
	}
	if factorsOut != "" {
		if err := spstream.SaveFactors(factorsOut, dec); err != nil {
			fatal(err)
		}
		fmt.Printf("factors written to %s\n", factorsOut)
	}
	if rcfg != nil && rcfg.Checkpoint != nil && dec.T() > 0 {
		if path, err := rcfg.Checkpoint.Write(dec.T(), dec); err != nil {
			fmt.Fprintf(os.Stderr, "cpstream: final checkpoint: %v\n", err)
		} else {
			fmt.Printf("checkpoint written to %s\n", path)
		}
	}
	if checkpoint != "" {
		if err := resilience.AtomicWriteFile(checkpoint, dec.SaveState); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", checkpoint)
	}
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

// restoreFrom restores the decomposer from a checkpoint file, or — when
// path is a directory — from the newest valid checkpoint inside it.
// It returns the path actually used.
func restoreFrom(path string, dec *spstream.Decomposer) (string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if info.IsDir() {
		return spstream.RestoreNewestCheckpoint(path, dec)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := dec.RestoreState(io.Reader(f)); err != nil {
		return "", err
	}
	return path, nil
}

func fatal(err error) {
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	fmt.Fprintln(os.Stderr, "cpstream:", err)
	os.Exit(1)
}
