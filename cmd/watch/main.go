// Command watch runs a live streaming decomposition over an event feed:
// each input line is one event ("i j k value", 1-based coordinates, the
// value optional and defaulting to 1), events are windowed into slices,
// and after every window the tool prints the model's component summary —
// the end-to-end shape of the monitoring deployments the paper's
// introduction motivates ("topic monitoring, trend analysis").
//
// The feed runs on the daemon's pipeline (serve.NewPipeline), so a
// producer that outruns the solver cannot grow memory without bound. The
// flags watch shares with cpstream and spstreamd are registered once, by
// serve.Config's Flags and WindowFlags: the model, the queue and its
// -shed-policy, -max-lag, the spill WAL, and -checkpoint-dir (restored
// at startup, written every 10 committed windows keeping 3, and at
// drain). watch's own are -top, -window-timeout, -stats, and -degrade,
// the lag-aware controller that trades model quality for throughput
// under sustained overload. SIGINT/SIGTERM drain the backlog (bounded by
// -drain-timeout); a second signal force-quits.
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

// config is the parsed flag set: the pipeline's Config and watch's own
// flags. run takes it whole so tests drive it without a flag round-trip.
type config struct {
	serve.Config
	topN                    int
	windowTimeout           time.Duration
	degrade, stats, showVer bool
}

// newFlags binds every watch flag to a config that holds the defaults.
func newFlags() (*config, *flag.FlagSet) {
	c := &config{Config: serve.Config{
		Options:      spstream.Options{Rank: 8, Algorithm: spstream.SpCPStream, Mu: 0.95, TrackFit: true, Normalize: true},
		WindowEvents: 10000,
		QueueCap:     8,
		DrainTimeout: 30 * time.Second,
	}, topN: 3}
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	c.Flags(fs)
	c.WindowFlags(fs)
	fs.IntVar(&c.topN, "top", c.topN, "top rows to print per component")
	fs.DurationVar(&c.windowTimeout, "window-timeout", 0, "emit a partial window after this much wall-clock time (0 = count only)")
	fs.BoolVar(&c.degrade, "degrade", false, "degrade model quality under sustained overload instead of falling behind")
	fs.BoolVar(&c.stats, "stats", false, "print produced/processed/shed/coalesced/rejected counters on exit")
	fs.BoolVar(&c.showVer, "version", false, "print version/build information and exit")
	return c, fs
}

func parseFlags(args []string) (config, error) {
	c, fs := newFlags()
	fs.Parse(args) // ExitOnError
	if c.Dims == nil && !c.showVer {
		return *c, errors.New("-dims is required")
	}
	return *c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if cfg.showVer {
		fmt.Println("watch", version.String())
		return
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
	var dec *spstream.Decomposer
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	dec, p, err := serve.NewPipeline(cfg.Config, spstream.IngestConfig{
		Degrade: cfg.degrade,
		OnResult: func(res spstream.SliceResult) {
			printWindow(out, dec, res, cfg.Dims, cfg.topN)
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

	acc := spstream.NewWindowAccumulator(cfg.Dims, cfg.WindowEvents)
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
			ev, err := serve.ParseEvent(line, cfg.Dims)
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
				acc.SetWindowEvents(cfg.WindowEvents * p.WindowFactor())
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
