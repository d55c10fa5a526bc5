package main

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/ingest"
	"spstream/internal/resilience"
	"spstream/internal/serve"
)

func TestParseChaos(t *testing.T) {
	hook, err := parseChaos("fail=2-3")
	if err != nil {
		t.Fatal(err)
	}
	begin := func() error { return hook(resilience.Fault{Stage: resilience.StageBegin}) }
	if err := begin(); err != nil {
		t.Fatalf("attempt 1 should pass: %v", err)
	}
	for i := 2; i <= 3; i++ {
		if err := begin(); !errors.Is(err, resilience.ErrDiverged) {
			t.Fatalf("attempt %d = %v, want ErrDiverged", i, err)
		}
	}
	if err := begin(); err != nil {
		t.Fatalf("attempt 4 should pass: %v", err)
	}
	// Non-begin stages are never injected.
	if err := hook(resilience.Fault{Stage: resilience.StageIterate}); err != nil {
		t.Fatalf("iterate stage injected: %v", err)
	}

	for _, bad := range []string{"x", "fail=", "fail=0-2", "fail=5-3", "stall=1-2", "stall=1-2:zz", "boom=1-2"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) accepted", bad)
		}
	}
	if _, err := parseChaos("fail=4,stall=1-2:10ms"); err != nil {
		t.Fatalf("compound spec rejected: %v", err)
	}
}

// TestFlagSurface pins the daemon's flags: their names (the shared ones
// registered by serve), what an empty argv yields, and the serve.Config
// the benchmark's argv (bench/serve.go, startDaemon) parses to, field by
// field: the benchmark's serving workloads run this daemon with it.
func TestFlagSurface(t *testing.T) {
	var names []string
	_, fs := newFlags()
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	const want = "addr alg body-limit breaker-cooldown breaker-failures chaos checkpoint-dir dims drain-timeout every keep max-lag mu on-error queue rank request-timeout shard-count shard-id shed-policy slice-timeout spill-dir spill-fsync-interval spill-max-bytes version window"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("flags:\n got %s\nwant %s", got, want)
	}
	defaults := serve.Config{
		Options: core.Options{Rank: 8, Algorithm: core.SpCPStream, Mu: 0.95, Normalize: true,
			Resilience: &resilience.Config{Policy: resilience.SkipSlice}},
		WindowEvents: 1000, QueueCap: 8, Policy: ingest.DropNewest, DrainTimeout: 30 * time.Second,
		CheckpointEvery: 10, CheckpointKeep: 3, BreakerFailures: 3, BreakerCooldown: 5 * time.Second,
		BodyLimit: 8 << 20, RequestTimeout: 30 * time.Second,
	}
	bench := serve.Config{
		Dims: []int{24, 110, 170},
		Options: core.Options{Rank: 16, Algorithm: core.SpCPStream, Mu: 0.95, Normalize: true,
			Resilience: &resilience.Config{Policy: resilience.SkipSlice}},
		WindowEvents: 2000, QueueCap: 8, Policy: ingest.DropNewest, DrainTimeout: 30 * time.Second,
		SpillDir: "d/wal", CheckpointDir: "d/ck", CheckpointEvery: 10, CheckpointKeep: 3,
		BreakerFailures: 3, BreakerCooldown: 5 * time.Second, BodyLimit: 8 << 20, RequestTimeout: 30 * time.Second,
	}
	for _, tc := range []struct {
		argv string
		want serve.Config
		err  string
	}{
		{"", defaults, "-dims is required"},
		{"-addr 127.0.0.1:0 -dims 24,110,170 -rank 16 -alg spcp -window 2000 -queue 8 -spill-dir d/wal -checkpoint-dir d/ck -every 10", bench, ""},
	} {
		c, err := parseFlags(strings.Fields(tc.argv))
		if (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("%q: err = %v, want %q", tc.argv, err, tc.err)
		}
		c.Logf = nil // WithDefaults' no-op; main installs the real one
		if !reflect.DeepEqual(c.Config, tc.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.argv, c.Config, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-dims", "10,8", "-shed-policy", "block"}); err == nil || !strings.Contains(err.Error(), "hang HTTP ingest") {
		t.Errorf("-shed-policy block: err = %v", err)
	}
	c, err := parseFlags([]string{"-dims", "90,40", "-shard-id", "1", "-shard-count", "3"})
	if err != nil || *c.Shard != (serve.ShardInfo{ID: 1, Count: 3, RowLo: 30, RowHi: 60}) {
		t.Errorf("shard 1 of 3: %v, %+v", err, c.Shard)
	}
}
