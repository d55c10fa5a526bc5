// Command watch runs a live streaming decomposition over an event feed:
// each input line is one event ("i j k value", 1-based coordinates, the
// value optional and defaulting to 1), events are windowed into slices,
// and after every window the tool prints the model's component summary —
// the end-to-end shape of the monitoring deployments the paper's
// introduction motivates ("topic monitoring, trend analysis").
//
// The feed goes through a bounded ingestion pipeline, so a producer
// that outruns the solver cannot grow memory without bound: the
// -shed-policy flag selects what happens to windows the solver cannot
// keep up with, -max-lag sheds windows that have gone stale in the
// queue, and -degrade arms the lag-aware controller that trades model
// quality for throughput under sustained overload (and restores full
// quality once the queue calms). With -spill-dir, overflow is never
// shed at all: it rides a crash-safe on-disk WAL and replays in order,
// resuming from the newest checkpoint after a crash. With
// -checkpoint-dir the run checkpoints like the daemon does — every 10
// committed windows, keeping 3 — and restores the newest one at startup.
// SIGINT/SIGTERM drain gracefully: the backlog is flushed (bounded by
// -drain-timeout), a final checkpoint is written when -checkpoint-dir
// is set, and the overload counters are reported with -stats. A second
// signal force-quits.
//
// Examples:
//
//	tensorgen -preset uber -scale 0.1 -o - | watch -dims 24,110,170 -rank 8
//	tail -f events.log | watch -dims 100,100 -window 5000 -top 3 \
//	    -shed-policy coalesce -max-lag 2s -degrade -stats
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spstream"
	"spstream/internal/serve"
	"spstream/internal/version"
)

// config is the parsed flag set; run takes it whole so tests can drive
// every combination without a flag round-trip.
type config struct {
	dims          []int
	window        int
	rank          int
	topN          int
	mu            float64
	alg           spstream.Algorithm
	queueCap      int
	policy        spstream.ShedPolicy
	maxLag        time.Duration
	degrade       bool
	drainTimeout  time.Duration
	windowTimeout time.Duration
	checkpointDir string
	spillDir      string
	spillMaxBytes int64
	spillFsync    time.Duration
	stats         bool
}

func main() {
	var cfg config
	dimsFlag := flag.String("dims", "", "mode lengths of each event's coordinates, comma separated (required)")
	flag.IntVar(&cfg.window, "window", 10000, "events per window/slice")
	flag.IntVar(&cfg.rank, "rank", 8, "decomposition rank")
	flag.IntVar(&cfg.topN, "top", 3, "top rows to print per component")
	flag.Float64Var(&cfg.mu, "mu", 0.95, "forgetting factor")
	alg := flag.String("alg", "spcp", "algorithm: optimized, spcp")
	flag.IntVar(&cfg.queueCap, "queue", 8, "max windows buffered between feed and solver")
	shed := flag.String("shed-policy", "block", "full-queue policy: block, drop-newest, drop-oldest, coalesce, spill")
	flag.DurationVar(&cfg.maxLag, "max-lag", 0, "shed windows older than this at solve time (0 = never)")
	flag.BoolVar(&cfg.degrade, "degrade", false, "degrade model quality under sustained overload instead of falling behind")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time to flush the backlog on shutdown")
	flag.DurationVar(&cfg.windowTimeout, "window-timeout", 0, "emit a partial window after this much wall-clock time (0 = count only)")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "restore the newest checkpoint from here at startup; write one every 10 windows and on graceful shutdown")
	flag.StringVar(&cfg.spillDir, "spill-dir", "", "durable backlog directory: queue overflow spills to a crash-safe WAL here and replays in order (implies -shed-policy spill)")
	flag.Int64Var(&cfg.spillMaxBytes, "spill-max-bytes", 0, "cap on the on-disk spill backlog; 0 = unbounded (past the cap overflow is shed)")
	flag.DurationVar(&cfg.spillFsync, "spill-fsync-interval", 0, "WAL group-commit window — how much freshly spilled data a hard crash may lose (0 = fsync every window)")
	flag.BoolVar(&cfg.stats, "stats", false, "print produced/processed/shed/coalesced/rejected counters on exit")
	showVer := flag.Bool("version", false, "print version/build information and exit")
	flag.Parse()
	if *showVer {
		fmt.Println("watch", version.String())
		return
	}
	var err error
	if cfg.dims, err = serve.ParseDims(*dimsFlag); err != nil {
		fatal(err)
	}
	if cfg.alg, err = spstream.ParseAlgorithm(*alg); err != nil {
		fatal(err)
	}
	if cfg.policy, err = spstream.ParseShedPolicy(*shed); err != nil {
		fatal(err)
	}

	// First signal: graceful drain. Restoring default handling as soon
	// as it fires means a second signal force-quits a wedged drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if err := run(ctx, os.Stdin, os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

// lockedWriter serializes output: window summaries arrive from the
// pipeline's consumer goroutine while rejection warnings come from the
// producer loop.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// run is the testable core: it consumes the event feed from r and
// writes per-window summaries to w until EOF or ctx cancellation
// (signal), then drains gracefully. The decomposer, its restore from
// -checkpoint-dir, the pipeline, the spill WAL and the checkpoint
// cadence (every 10 committed windows, keep 3, one more at drain) are
// the daemon's (serve.NewPipeline); what is watch's own is the feed,
// the window timeout, the -degrade window widening and the summaries.
func run(ctx context.Context, r io.Reader, w io.Writer, cfg config) error {
	out := &lockedWriter{w: w}
	var degrade *spstream.DegradeConfig
	if cfg.degrade {
		degrade = &spstream.DegradeConfig{MaxLag: cfg.maxLag}
	}
	var dec *spstream.Decomposer
	dec, p, err := serve.NewPipeline(serve.Config{
		Dims: cfg.dims,
		Options: spstream.Options{
			Rank:      cfg.rank,
			Algorithm: cfg.alg,
			Mu:        cfg.mu,
			TrackFit:  true,
			Normalize: true,
		},
		QueueCap:           cfg.queueCap,
		Policy:             cfg.policy,
		MaxLag:             cfg.maxLag,
		DrainTimeout:       cfg.drainTimeout,
		SpillDir:           cfg.spillDir,
		SpillMaxBytes:      cfg.spillMaxBytes,
		SpillFsyncInterval: cfg.spillFsync,
		CheckpointDir:      cfg.checkpointDir,
		Logf:               func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) },
	}, spstream.IngestConfig{
		Degrade: degrade,
		OnResult: func(res spstream.SliceResult) {
			printWindow(out, dec, res, cfg.dims, cfg.topN)
		},
		OnError: func(err error) {
			if errors.Is(err, spstream.ErrIngestDurability) {
				fmt.Fprintln(out, err)
			} else {
				fmt.Fprintf(out, "window dropped: %v\n", err)
			}
		},
	})
	if err != nil {
		return err
	}
	// The consumer gets its own context: the signal only stops the
	// producer, and the backlog still drains (bounded by DrainTimeout).
	p.Start(context.Background())

	acc := spstream.NewWindowAccumulator(cfg.dims, cfg.window)
	acc.WindowTimeout = cfg.windowTimeout

	// The scanner runs in its own goroutine so a signal interrupts the
	// loop even while a read is pending on a quiet feed.
	lines := make(chan string, 64)
	scanErr := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
		scanErr <- sc.Err()
	}()

	var tick <-chan time.Time
	if cfg.windowTimeout > 0 {
		ticker := time.NewTicker(cfg.windowTimeout)
		defer ticker.Stop()
		tick = ticker.C
	}

	lineNo, rejected := 0, 0
	interrupted := false
feed:
	for {
		select {
		case <-ctx.Done():
			interrupted = true
			break feed
		case <-tick:
			// A sparse feed must not stall a partial window forever.
			if slice := acc.Poll(); slice != nil {
				if err := p.Offer(slice); err != nil {
					break feed
				}
			}
		case line, ok := <-lines:
			if !ok {
				break feed
			}
			lineNo++
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			ev, err := serve.ParseEvent(line, cfg.dims)
			if err != nil {
				// A live feed keeps going past garbage; the count is
				// reported with -stats.
				rejected++
				if rejected <= 3 {
					fmt.Fprintf(out, "rejected line %d: %v\n", lineNo, err)
				}
				continue
			}
			if cfg.degrade {
				// The controller widens windows under load; the
				// accumulator follows between events.
				acc.SetWindowEvents(cfg.window * p.WindowFactor())
			}
			if slice := acc.Add(ev); slice != nil {
				if err := p.Offer(slice); err != nil {
					break feed
				}
			}
		}
	}

	// Graceful drain: flush the partial window, process the backlog
	// (the pipeline writes the final checkpoint), report.
	if slice := acc.Flush(); slice != nil {
		_ = p.Offer(slice)
	}
	snap := p.Drain(context.Background())
	if interrupted {
		fmt.Fprintln(out, "interrupted: backlog drained")
	} else if err := <-scanErr; err != nil {
		return err
	}
	if mgr := dec.Checkpoints(); mgr != nil {
		if cks := mgr.Checkpoints(); len(cks) > 0 {
			fmt.Fprintf(out, "checkpoint: %s\n", cks[0])
		}
	}
	if cfg.stats {
		fmt.Fprintf(out, "stats: %s rejected=%d\n", snap.String(), rejected)
	}
	if dec.T() == 0 {
		return fmt.Errorf("no complete windows in the input")
	}
	return nil
}

// printWindow renders one processed window's summary (called from the
// pipeline's consumer goroutine).
func printWindow(w io.Writer, dec *spstream.Decomposer, res spstream.SliceResult, dims []int, topN int) {
	fmt.Fprintf(w, "window %d: %d nnz, fit %.4f, %d iterations\n", res.T, res.NNZ, res.Fit, res.Iters)
	for rankPos, comp := range spstream.RankComponents(dec) {
		if rankPos >= 2 {
			break
		}
		fmt.Fprintf(w, "  component %d:", comp)
		for m := range dims {
			top := spstream.TopRows(dec, m, comp, topN)
			fmt.Fprintf(w, " mode%d=%s", m, rowList(top))
		}
		fmt.Fprintln(w)
	}
}

func rowList(rows []spstream.RowWeight) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = strconv.Itoa(r.Row + 1) // back to 1-based, matching the input
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "watch:", err)
	os.Exit(1)
}
