// Command spstream-gateway is the fault-tolerant front door of a
// row-sharded spstreamd cluster: a stateless HTTP gateway that routes
// ingest to shards by mode-0 row block, fans reads out to every shard
// and merges them, and degrades gracefully when shards are down.
//
// Endpoints (the single-node API, cluster-wide):
//
//	POST /v1/ingest        event lines; partitioned by mode-0 row and
//	                       forwarded per shard (FIFO, retried, breaker-guarded)
//	GET  /v1/factors       merged model: mode-0 row-block concatenation +
//	                       per-shard Gram norms; "partial": true with the
//	                       missing row ranges when shards are down
//	GET  /v1/reconstruct   ?coord routes to the owning shard; without coord
//	                       the merged model energy ‖X̂‖² = Σ_s ‖X̂_s‖²
//	GET  /v1/stats         forward ledger + per-shard breaker/backlog state,
//	                       with a topology audit of each shard's row block
//	GET  /healthz          liveness
//	GET  /readyz           503 only when draining or every shard is down
//
// Each shard is a full spstreamd started with -shard-id/-shard-count
// over the same -dims; the gateway and daemons derive identical row
// blocks from that pair, and /v1/stats flags any daemon whose
// self-reported block disagrees.
//
// Example (3 shards):
//
//	spstreamd -addr :9001 -dims 90,40 -shard-id 0 -shard-count 3 &
//	spstreamd -addr :9002 -dims 90,40 -shard-id 1 -shard-count 3 &
//	spstreamd -addr :9003 -dims 90,40 -shard-id 2 -shard-count 3 &
//	spstream-gateway -addr :8080 -dims 90,40 \
//	    -shards http://localhost:9001,http://localhost:9002,http://localhost:9003
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"spstream/internal/cluster"
	"spstream/internal/resilience"
	"spstream/internal/serve"
	"spstream/internal/version"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address (\":0\" picks a free port, printed on startup)")
		dimsFlag   = flag.String("dims", "", "mode lengths of each event's coordinates, comma separated (required; must match the shards)")
		shardsFlag = flag.String("shards", "", "comma-separated shard base URLs in shard-id order (required)")

		queueEv  = flag.Int("queue", 65536, "per-shard forward-queue bound, in events")
		sendRet  = flag.Int("send-retries", 0, "max delivery attempts per batch (0 = retry until shutdown)")
		readRet  = flag.Int("read-retries", 1, "extra attempts per shard for fan-out reads")
		reqTO    = flag.Duration("request-timeout", 5*time.Second, "per-upstream-request deadline")
		probeInt = flag.Duration("probe-interval", time.Second, "per-shard /readyz probe cadence")

		backBase = flag.Duration("backoff-base", 100*time.Millisecond, "retry backoff base delay")
		backCap  = flag.Duration("backoff-cap", 15*time.Second, "retry backoff ceiling")
		brkFails = flag.Int("breaker-failures", 3, "consecutive upstream failures that open a shard's breaker")
		brkCool  = flag.Duration("breaker-cooldown", 5*time.Second, "shard breaker open→half-open cooldown")

		bodyLimit = flag.Int64("body-limit", 8<<20, "max ingest request body bytes")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "max time to flush the forward queues on shutdown")
		showVer   = flag.Bool("version", false, "print version/build information and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("spstream-gateway", version.String())
		return
	}
	dims, err := serve.ParseDims(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	if *shardsFlag == "" {
		fatal(fmt.Errorf("-shards is required"))
	}
	var shardURLs []string
	for _, u := range strings.Split(*shardsFlag, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			fatal(fmt.Errorf("empty shard URL in -shards"))
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		shardURLs = append(shardURLs, u)
	}
	router, err := cluster.NewRouter(dims, len(shardURLs))
	if err != nil {
		fatal(err)
	}

	g, err := cluster.New(cluster.Config{
		Router:         router,
		Shards:         shardURLs,
		Version:        version.String(),
		QueueEvents:    *queueEv,
		SendRetries:    *sendRet,
		ReadRetries:    *readRet,
		RequestTimeout: *reqTO,
		ProbeInterval:  *probeInt,
		Backoff:        resilience.BackoffConfig{Base: *backBase, Cap: *backCap},
		Breaker:        resilience.BreakerConfig{FailureThreshold: *brkFails, Cooldown: *brkCool},
		BodyLimit:      *bodyLimit,
		DrainTimeout:   *drainTO,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "spstream-gateway: "+format+"\n", args...)
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
	fmt.Printf("spstream-gateway %s listening on %s\n", version.Version, ln.Addr())

	ctx, stop := serve.SignalContext() // a second signal force-quits
	defer stop()

	if err := g.Run(ctx, ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spstream-gateway:", err)
	os.Exit(1)
}
