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
// (snapshot isolation — never a mid-solve or rolled-back state), a full
// queue answers 429 + Retry-After instead of hanging, and consecutive
// solver failures open a circuit breaker that sheds ingest with 503
// until a half-open probe slice succeeds. SIGINT/SIGTERM drain the
// backlog (bounded by -drain-timeout), write a final checkpoint when
// -checkpoint-dir is set, finish in-flight reads, and exit 0; on
// restart the newest checkpoint is restored.
//
// With -spill-dir, queue overflow is not shed: it spills to a
// crash-safe write-ahead log in that directory and replays in
// admission order as the solver catches up. After a hard crash the
// unconsumed backlog replays from the offset bound to the restored
// checkpoint — committed slices are never re-solved, admitted ones
// never dropped.
//
// Examples:
//
//	spstreamd -addr :8080 -dims 100,100 -rank 8 -checkpoint-dir /var/lib/spstream
//	curl -s localhost:8080/v1/stats | jq .breaker
package main

import (
	"context"
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

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address (\":0\" picks a free port, printed on startup)")
		dimsFlag = flag.String("dims", "", "mode lengths of each event's coordinates, comma separated (required)")
		rank     = flag.Int("rank", 8, "decomposition rank")
		alg      = flag.String("alg", "spcp", "algorithm: optimized, spcp")
		mu       = flag.Float64("mu", 0.95, "forgetting factor")
		window   = flag.Int("window", 1000, "events per window/slice")
		queueCap = flag.Int("queue", 8, "max windows buffered between API and solver")
		shed     = flag.String("shed-policy", "drop-newest", "full-queue policy: drop-newest, drop-oldest, coalesce, spill")
		maxLag   = flag.Duration("max-lag", 0, "shed windows older than this at solve time (0 = never)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "max time to flush the backlog on shutdown")

		spillDir   = flag.String("spill-dir", "", "durable backlog directory: queue overflow spills to a crash-safe WAL here and replays in order (implies -shed-policy spill)")
		spillMax   = flag.Int64("spill-max-bytes", 0, "cap on the on-disk spill backlog; 0 = unbounded (past the cap overflow is shed)")
		spillFsync = flag.Duration("spill-fsync-interval", 0, "WAL group-commit window — how much freshly spilled data a hard crash may lose (0 = fsync every window)")

		ckptDir   = flag.String("checkpoint-dir", "", "restore from and checkpoint into this directory")
		ckptEvery = flag.Int("every", 10, "checkpoint every N committed slices")
		ckptKeep  = flag.Int("keep", 3, "checkpoints to retain")

		memBudget = flag.Int64("mem-budget", 0, "resident-memory budget in bytes per slice for block-delivered slices (0 = unconstrained)")

		onError  = flag.String("on-error", "skip", "slice-failure policy: abort, retry, skip")
		sliceTO  = flag.Duration("slice-timeout", 0, "per-slice solve deadline (0 = none)")
		brkFails = flag.Int("breaker-failures", 3, "consecutive solver failures that open the circuit breaker")
		brkCool  = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open→half-open cooldown")

		bodyLimit = flag.Int64("body-limit", 8<<20, "max request body bytes")
		reqTO     = flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline")

		shardID    = flag.Int("shard-id", -1, "this daemon's shard index in a row-sharded cluster (requires -shard-count)")
		shardCount = flag.Int("shard-count", 0, "total shards in the cluster; 0 = standalone (see cmd/spstream-gateway)")

		chaos   = flag.String("chaos", "", "fault injection spec for testing, e.g. \"fail=3-5\" or \"stall=2-2:200ms\" (begin-attempt ordinals, 1-based)")
		showVer = flag.Bool("version", false, "print version/build information and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("spstreamd", version.String())
		return
	}
	dims, err := serve.ParseDims(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	// Shard identity is derived from the same router arithmetic the
	// gateway uses, so the daemon's self-reported row block in /v1/stats
	// can be audited against the gateway's routing table.
	var shardInfo *serve.ShardInfo
	if *shardCount > 0 || *shardID >= 0 {
		if *shardCount < 1 || *shardID < 0 || *shardID >= *shardCount {
			fatal(fmt.Errorf("-shard-id %d with -shard-count %d: need 0 <= id < count", *shardID, *shardCount))
		}
		router, err := cluster.NewRouter(dims, *shardCount)
		if err != nil {
			fatal(err)
		}
		lo, hi := router.Block(*shardID)
		shardInfo = &serve.ShardInfo{ID: *shardID, Count: *shardCount, RowLo: lo, RowHi: hi}
	}
	algorithm, err := core.ParseAlgorithm(*alg)
	if err != nil {
		fatal(err)
	}
	policy, err := ingest.ParseShedPolicy(*shed)
	if err != nil {
		fatal(err)
	}
	if policy == ingest.Block {
		fatal(fmt.Errorf("the block policy would hang HTTP ingest; use a shedding policy"))
	}
	rpolicy, err := resilience.ParsePolicy(*onError)
	if err != nil {
		fatal(err)
	}
	rcfg := &resilience.Config{Policy: rpolicy, SliceTimeout: *sliceTO}
	if *chaos != "" {
		hook, err := parseChaos(*chaos)
		if err != nil {
			fatal(err)
		}
		rcfg.FaultHook = hook
		fmt.Fprintf(os.Stderr, "spstreamd: CHAOS MODE: %s\n", *chaos)
	}

	srv, err := serve.New(serve.Config{
		Dims: dims,
		Options: core.Options{
			Rank:       *rank,
			Algorithm:  algorithm,
			Mu:         *mu,
			TrackFit:   true,
			Normalize:  true,
			MemBudget:  *memBudget,
			Resilience: rcfg,
		},
		WindowEvents:       *window,
		QueueCap:           *queueCap,
		Policy:             policy,
		MaxLag:             *maxLag,
		DrainTimeout:       *drainTO,
		SpillDir:           *spillDir,
		SpillMaxBytes:      *spillMax,
		SpillFsyncInterval: *spillFsync,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointKeep:     *ckptKeep,
		BreakerFailures:    *brkFails,
		BreakerCooldown:    *brkCool,
		BodyLimit:          *bodyLimit,
		RequestTimeout:     *reqTO,
		Shard:              shardInfo,
		Version:            version.String(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "spstreamd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
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
