// Command spstreamd is the streaming-decomposition daemon: the ingest
// pipeline and the resilient solver run in the background while an
// HTTP API serves the current model.
//
// Endpoints:
//
//	POST /v1/ingest        event lines ("i j k [value]", 1-based); ?flush=1
//	GET  /v1/factors       the published snapshot (?mode=N for one mode)
//	GET  /v1/reconstruct   model value at ?coord=i,j,…
//	GET  /v1/stats         build info, breaker state, overload/recovery counters
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while the breaker is open or draining)
//
// The serving contract: reads always see a committed slice boundary
// (snapshot isolation), a full queue answers 429 + Retry-After instead
// of hanging, and consecutive solver failures open a circuit breaker
// that sheds ingest with 503 until a half-open probe slice succeeds.
// SIGINT/SIGTERM drain the backlog, write a final checkpoint, finish
// in-flight reads and exit 0; on restart the newest checkpoint is
// restored, and with -spill-dir the WAL backlog replays from the cursor
// stored in it.
//
// The flags it shares with cpstream and watch are registered once, by
// serve.Config's Flags, GuardFlags and WindowFlags; the daemon's own are
// -addr, -shard-id/-shard-count, -chaos, the breaker's, -body-limit and
// -request-timeout.
//
// Examples:
//
//	spstreamd -addr :8080 -dims 100,100 -rank 8 -checkpoint-dir /var/lib/spstream
//	curl -s localhost:8080/v1/stats | jq .breaker
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"spstream/internal/cluster"
	"spstream/internal/core"
	"spstream/internal/ingest"
	"spstream/internal/resilience"
	"spstream/internal/serve"
	"spstream/internal/version"
)

// config is the parsed flag set: the server's Config and the daemon's
// own flags.
type config struct {
	serve.Config
	addr, chaos         string
	shardID, shardCount int
	showVer             bool
}

// newFlags binds every spstreamd flag to a config that holds the defaults.
func newFlags() (*config, *flag.FlagSet) {
	c := &config{Config: serve.Config{
		Options: core.Options{Rank: 8, Algorithm: core.SpCPStream, Mu: 0.95, TrackFit: true, Normalize: true},
		Policy:  ingest.DropNewest,
	}.WithDefaults()}
	fs := flag.NewFlagSet("spstreamd", flag.ExitOnError)
	c.Flags(fs)
	c.GuardFlags(fs)
	c.WindowFlags(fs)
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address (\":0\" picks a free port, printed on startup)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", c.BreakerFailures, "consecutive solver failures that open the circuit breaker")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", c.BreakerCooldown, "breaker open→half-open cooldown")
	fs.Int64Var(&c.BodyLimit, "body-limit", c.BodyLimit, "max request body bytes")
	fs.DurationVar(&c.RequestTimeout, "request-timeout", c.RequestTimeout, "per-request handler deadline")
	fs.IntVar(&c.shardID, "shard-id", -1, "this daemon's shard index in a row-sharded cluster (requires -shard-count)")
	fs.IntVar(&c.shardCount, "shard-count", 0, "total shards in the cluster; 0 = standalone (see cmd/spstream-gateway)")
	fs.StringVar(&c.chaos, "chaos", "", "fault injection spec for testing, e.g. \"fail=3-5\" or \"stall=2-2:200ms\" (begin-attempt ordinals, 1-based)")
	fs.BoolVar(&c.showVer, "version", false, "print version/build information and exit")
	return c, fs
}

func parseFlags(args []string) (config, error) {
	c, fs := newFlags()
	fs.Parse(args) // ExitOnError
	switch {
	case c.showVer:
		return *c, nil
	case c.Dims == nil:
		return *c, errors.New("-dims is required")
	case c.Policy == ingest.Block:
		return *c, errors.New("the block policy would hang HTTP ingest; use a shedding policy")
	}
	// Shard identity is derived from the same router arithmetic the
	// gateway uses, so the daemon's self-reported row block in /v1/stats
	// can be audited against the gateway's routing table.
	if c.shardCount > 0 || c.shardID >= 0 {
		if c.shardCount < 1 || c.shardID < 0 || c.shardID >= c.shardCount {
			return *c, fmt.Errorf("-shard-id %d with -shard-count %d: need 0 <= id < count", c.shardID, c.shardCount)
		}
		router, err := cluster.NewRouter(c.Dims, c.shardCount)
		if err != nil {
			return *c, err
		}
		lo, hi := router.Block(c.shardID)
		c.Shard = &serve.ShardInfo{ID: c.shardID, Count: c.shardCount, RowLo: lo, RowHi: hi}
	}
	if c.chaos != "" {
		hook, err := parseChaos(c.chaos)
		if err != nil {
			return *c, err
		}
		c.Options.Resilience.FaultHook = hook
	}
	return *c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if cfg.showVer {
		fmt.Println("spstreamd", version.String())
		return
	}
	if cfg.chaos != "" {
		fmt.Fprintf(os.Stderr, "spstreamd: CHAOS MODE: %s\n", cfg.chaos)
	}
	cfg.Version = version.String()
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "spstreamd: "+format+"\n", args...)
	}
	srv, err := serve.New(cfg.Config)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fatal(err)
	}
	// The e2e harness (and humans using :0) parse this line.
	fmt.Printf("spstreamd %s listening on %s\n", version.Version, ln.Addr())

	// First signal: graceful drain. Restoring default handling as soon
	// as it fires means a second signal force-quits a wedged drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if err := srv.Run(ctx, ln); err != nil {
		fatal(err)
	}
}

// parseChaos parses the -chaos spec: comma-separated directives
// "fail=A-B" (inject resilience.ErrDiverged) and "stall=A-B:DUR"
// (sleep DUR), where A-B is a 1-based inclusive range of *begin
// attempts* — every slice attempt, including retries, increments the
// counter. Attempt ordinals (not slice indices) key the injection
// because the slice counter does not advance across failed slices.
func parseChaos(spec string) (resilience.Hook, error) {
	type rule struct {
		lo, hi int64
		stall  time.Duration
		fail   bool
	}
	var rules []rule
	for _, part := range strings.Split(spec, ",") {
		kind, arg, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad chaos directive %q", part)
		}
		r := rule{}
		rangeStr := arg
		switch kind {
		case "fail":
			r.fail = true
		case "stall":
			var durStr string
			rangeStr, durStr, ok = strings.Cut(arg, ":")
			if !ok {
				return nil, fmt.Errorf("stall needs a duration: %q", part)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("bad stall duration %q: %v", durStr, err)
			}
			r.stall = d
		default:
			return nil, fmt.Errorf("unknown chaos directive %q (want fail, stall)", kind)
		}
		loStr, hiStr, ok := strings.Cut(rangeStr, "-")
		if !ok {
			hiStr = loStr
		}
		lo, err1 := strconv.ParseInt(loStr, 10, 64)
		hi, err2 := strconv.ParseInt(hiStr, 10, 64)
		if err1 != nil || err2 != nil || lo < 1 || hi < lo {
			return nil, fmt.Errorf("bad chaos range %q", rangeStr)
		}
		r.lo, r.hi = lo, hi
		rules = append(rules, r)
	}
	var begins atomic.Int64
	return func(f resilience.Fault) error {
		if f.Stage != resilience.StageBegin {
			return nil
		}
		n := begins.Add(1)
		for _, r := range rules {
			if n < r.lo || n > r.hi {
				continue
			}
			if r.stall > 0 {
				time.Sleep(r.stall)
			}
			if r.fail {
				return fmt.Errorf("chaos: injected failure at begin attempt %d: %w", n, resilience.ErrDiverged)
			}
		}
		return nil
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spstreamd:", err)
	os.Exit(1)
}
