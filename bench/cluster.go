package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"spstream/internal/cluster"
	"spstream/internal/serve"
)

// clusterWindows is how many windows' worth of POST bodies the cluster
// probe sends: the gateway is probed at low volume, not loaded.
const clusterWindows = 10

// inprocServer is a serve.Server running on a loopback listener.
type inprocServer struct {
	base string
	stop func() error
}

func startInproc(s *serveSpec, dims []int, workers int, shard *serve.ShardInfo) (*inprocServer, error) {
	srv, err := serve.New(serve.Config{
		Dims: dims, Options: daemonOptions(workers), WindowEvents: s.window, QueueCap: 4 * clusterWindows, Shard: shard,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, ln) }()
	return &inprocServer{base: "http://" + ln.Addr().String(), stop: func() error {
		cancel()
		return <-done
	}}, nil
}

// postAll posts the bodies one after another and returns each POST's
// latency in ms; any non-2xx reply is an error.
func postAll(ctx context.Context, base string, bodies [][]byte) ([]float64, error) {
	client := oneConn()
	defer client.CloseIdleConnections()
	var lat []float64
	for i, body := range bodies {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, ms(time.Since(t0)))
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return nil, fmt.Errorf("POST %d to %s: status %d", i, base, resp.StatusCode)
		}
	}
	return lat, nil
}

// clusterProbe puts two in-process shards behind a cluster.Gateway and
// measures, at low volume, what the gateway adds: routing arithmetic,
// the forward path (gateway POST p50 minus the p50 of the same bodies
// posted straight to a single node), and the merged mode-0 read.
func clusterProbe(ctx context.Context, env *runEnv, name string, f *feed, s *serveSpec, res *result, tr *tracer) error {
	pl := res.PerLayer
	router, err := cluster.NewRouter(f.dims, 2)
	if err != nil {
		return err
	}
	nEv := min(len(f.events), clusterWindows*f.window)
	events := f.events[:nEv]
	pl["cluster.partition_ns_per_event"] = float64(tr.probe("Router.Partition", "cluster", name, func() {
		if _, err := router.Partition(events); err != nil {
			res.violate("Router.Partition: %v", err)
		}
	})) / float64(nEv)

	var servers []*inprocServer
	defer func() {
		for _, sv := range servers {
			sv.stop()
		}
	}()
	var urls []string
	for id := 0; id < 2; id++ {
		lo, hi := router.Block(id)
		sv, err := startInproc(s, f.dims, env.daemonProcs, &serve.ShardInfo{ID: id, Count: 2, RowLo: lo, RowHi: hi})
		if err != nil {
			return err
		}
		servers = append(servers, sv)
		urls = append(urls, sv.base)
	}
	single, err := startInproc(s, f.dims, env.daemonProcs, nil)
	if err != nil {
		return err
	}
	servers = append(servers, single)

	gw, err := cluster.New(cluster.Config{Router: router, Shards: urls})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gctx, stopGW := context.WithCancel(context.Background())
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Run(gctx, ln) }()
	defer func() {
		stopGW()
		<-gwDone
	}()
	gwBase := "http://" + ln.Addr().String()

	bodies := f.bodies[:nEv/f.perBody]
	direct, err := postAll(ctx, single.base, bodies)
	if err != nil {
		return err
	}
	start := time.Now()
	viaGW, err := postAll(ctx, gwBase, bodies)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.add(0, "gateway POSTs", "cluster", name, -1, start, time.Now())
	}
	pl["cluster.forward_overhead_ms_p50"] = median(viaGW) - median(direct)
	// The forward queues drain to the shards before the merged read.
	for deadline := time.Now().Add(20 * time.Second); gw.Pending() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	client := oneConn()
	defer client.CloseIdleConnections()
	pl["cluster.merge_factors_ms"] = ms(tr.probe("gateway GET /v1/factors", "cluster", name, func() {
		var doc struct {
			Partial bool        `json:"partial"`
			Mode0   [][]float64 `json:"mode0"`
		}
		err := getJSON(ctx, client, gwBase+"/v1/factors", &doc)
		if err != nil || doc.Partial || len(doc.Mode0) != f.dims[0] {
			res.violate("gateway /v1/factors: %d merged mode-0 rows, want %d (partial=%v, %v)", len(doc.Mode0), f.dims[0], doc.Partial, err)
		}
	}))
	return nil
}
