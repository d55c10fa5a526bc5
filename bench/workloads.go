package main

import (
	"time"

	"spstream/internal/admm"
	"spstream/internal/core"
)

// workload is one named input and call path. Exactly one of batch and
// serve is set.
type workload struct {
	name  string
	why   string
	batch *batchSpec
	serve *serveSpec
}

// workloads returns the six workloads. quick shrinks every input
// (scale 0.05, T = 4, 10 windows) so the whole set runs in seconds;
// shapes, K and the window are otherwise fixed and only T follows the
// time the contract allows (see README, "Run length").
func workloads(quick bool) []workload {
	scale := 1.0
	t := func(full int) int { return full }
	if quick {
		scale = 0.05
		t = func(int) int { return 4 }
	}
	serve := func(closed bool) *serveSpec {
		s := &serveSpec{
			presetScale: 0.25, window: 2000, queue: 8, every: 10,
			postEvents: 500, rate: 12000, windowsPerSecond: 6,
			readEvery: 4 * time.Millisecond, closedLoop: closed,
		}
		if closed {
			// Whole-window bodies back to back; the daemon commits
			// about twenty windows a second on the 2-core sandbox.
			s.postEvents, s.windowsPerSecond = s.window, 10
		}
		if quick {
			s.presetScale, s.window, s.quickWindows = 0.25*scale, 200, 10
			s.postEvents, s.rate = 50, 4000
			if closed {
				s.postEvents = s.window
			}
		}
		return s
	}
	return []workload{
		{
			name:  "nips-uncon",
			why:   "MTTKRP-bound: nips 2500x2900x14000, 150k nnz/slice, T=12, Optimized unconstrained; where mttkrp/csf kernels and the perfmodel selector must show",
			batch: &batchSpec{preset: "nips", scale: scale, t: t(12), alg: core.Optimized},
		},
		{
			name:  "uber-nonneg",
			why:   "ADMM-bound: uber 24x1100x1700, 18k nnz/slice, T=8, Optimized + NonNeg; bypasses MTTKRP changes, target of admm/dense changes and of per-slice fixed cost",
			batch: &batchSpec{preset: "uber", scale: scale, t: t(8), alg: core.Optimized, constraint: admm.NonNeg{}},
		},
		{
			name:  "flickr-spcp",
			why:   "spCP-stream: flickr 4000x400000x20000, 20k nnz/slice touching 1-2% of rows, T=20; no phase above a third, 54 MB factors expose O(I*K) passes that should be O(nz*K)",
			batch: &batchSpec{preset: "flickr", scale: scale, t: t(20), alg: core.SpCPStream},
		},
		{
			name:  "ooc-stream",
			why:   "same kernels, block-streamed: uniform 1200x900x700, 500k nnz/slice, T=5 .spblk files opened cold under a 16 MiB budget; shows a loss if in-memory gains fatten per-slice state",
			batch: &batchSpec{scale: scale, t: t(5), alg: core.Optimized, blocked: true},
		},
		{
			name:  "serve-steady",
			why:   "whole serving path below saturation: real spstreamd child, open loop 12000 events/s in 500-event POSTs, reads every 4 ms beside writes; WAL bypassed (0 spilled)",
			serve: serve(false),
		},
		{
			name:  "serve-burst",
			why:   "saturation with the durable backlog: closed loop of whole-window POSTs overflows the 8-deep queue into the spill WAL (fsync per window) and replays it in order",
			serve: serve(true),
		},
	}
}

func findWorkload(ws []workload, name string) *workload {
	for i := range ws {
		if ws[i].name == name {
			return &ws[i]
		}
	}
	return nil
}
