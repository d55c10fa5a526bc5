package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"time"
)

// buildDaemon builds cmd/spstreamd from the checkout's source into the
// build directory, once per invocation. The time is bench.build_s, not
// part of any workload's setup_s.
func (b *bench) buildDaemon(ctx context.Context) error {
	if b.env.daemonBin != "" {
		return nil
	}
	bin := filepath.Join(b.root, buildDir, "spstreamd")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/spstreamd")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/spstreamd: %v\n%s", err, out)
	}
	b.env.buildSeconds = time.Since(t0).Seconds()
	b.env.daemonBin = bin
	return nil
}
