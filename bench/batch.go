package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spstream/internal/admm"
	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// rank is K for every workload.
const rank = 16

// warmupSlices are excluded from every timing: the first slices of a
// stream pay pool start-up, lazy kernel allocation and the random
// initial factors.
const warmupSlices = 2

// oocBudget is Options.MemBudget on ooc-stream: far below the ≈40 MB a
// 500 k-nonzero slice would occupy resident, so every slice streams.
const oocBudget = 16 << 20

// batchSpec describes one in-process workload: a synthetic stream
// pushed slice by slice through core.Decomposer.
type batchSpec struct {
	preset     string // synth preset, or "" for the uniform ooc tensor
	scale      float64
	t          int // slices per pass
	alg        core.Algorithm
	constraint admm.Constraint
	blocked    bool // slices go through .spblk files and ProcessBlockSliceContext
}

// memBudget is oocBudget, shrunk with the input under -quick so that
// the tiny slices still stream.
func (b batchSpec) memBudget() int64 {
	if b.scale < 1 {
		return int64(float64(oocBudget) * b.scale)
	}
	return oocBudget
}

// synthConfig is the generator configuration of a batch workload at a
// seed: the preset's shapes and distributions, the workload's T, and
// the benchmark seed as the only source of randomness.
func (b batchSpec) synthConfig(seed uint64) (synth.Config, error) {
	var cfg synth.Config
	if b.preset == "" {
		dims := []int{1200, 900, 700}
		nnz := 500_000
		if b.scale < 1 {
			nnz = int(float64(nnz) * b.scale)
		}
		cfg = synth.Config{
			Name:        "oocflat",
			Dists:       []synth.IndexDist{synth.Uniform{N: dims[0]}, synth.Uniform{N: dims[1]}, synth.Uniform{N: dims[2]}},
			NNZPerSlice: nnz,
			Values:      synth.ValuePlanted,
			PlantedRank: 8,
			NoiseStd:    0.05,
		}
	} else {
		var err error
		if cfg, err = synth.Preset(b.preset, b.scale); err != nil {
			return cfg, err
		}
	}
	cfg.T = b.t
	cfg.Seed = seed
	return cfg, nil
}

// options are the solver settings of every batch workload: the
// library defaults (MaxIters 20, KernelAuto, LayoutDefault, ADMM at
// most 50 iterations) at K = 16, with one exception. Tol and ADMMTol
// are set where they are never met, so every slice runs exactly
// MaxIters outer iterations and every ADMM solve exactly its 50: slice
// time is then a property of the input's shape and not of which slices
// of one seed happen to converge early (on uber-nonneg that is the
// difference between 0.1 s and 1.1 s per slice), and runs at different
// seeds measure the same amount of work.
func (b batchSpec) options(workers int) core.Options {
	o := core.Options{
		Rank:       rank,
		Algorithm:  b.alg,
		Constraint: b.constraint,
		Workers:    workers,
		Tol:        math.SmallestNonzeroFloat64,
		ADMMTol:    math.SmallestNonzeroFloat64,
	}
	if b.blocked {
		o.MemBudget = b.memBudget()
	}
	return o
}

// batchInput is a generated workload: slices in memory, or one block
// file per slice.
type batchInput struct {
	dims     []int
	slices   []*sptensor.Tensor // nil entries when blocked
	paths    []string           // blocked only
	nnz      []int
	checksum uint64
}

// inputChecksum fingerprints a generated stream (coordinates and value
// bits in order), so tests can pin "same seed → same input".
func inputChecksum(slices []*sptensor.Tensor) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	for _, x := range slices {
		for m := range x.Inds {
			for _, c := range x.Inds[m] {
				binary.LittleEndian.PutUint32(buf[:4], uint32(c))
				h.Write(buf[:4])
			}
		}
		for _, v := range x.Vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// generate builds the workload's input under dir (used only when the
// workload is blocked).
func (b batchSpec) generate(seed uint64, dir string) (*batchInput, error) {
	cfg, err := b.synthConfig(seed)
	if err != nil {
		return nil, err
	}
	stream, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &batchInput{dims: stream.Dims, slices: stream.Slices, checksum: inputChecksum(stream.Slices)}
	for _, x := range stream.Slices {
		in.nnz = append(in.nnz, x.NNZ())
	}
	if !b.blocked {
		return in, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for t, x := range stream.Slices {
		p := filepath.Join(dir, fmt.Sprintf("slice-%03d.spblk", t))
		if err := ooc.WriteTensor(p, x, 0); err != nil {
			return nil, err
		}
		in.paths = append(in.paths, p)
		in.slices[t] = nil // the program under test sees only the file
	}
	return in, nil
}

// sliceObs is what the bench observes around one slice call.
type sliceObs struct {
	wall     time.Duration
	cpu      time.Duration // user+system CPU time of the process during the call
	phases   [trace.NumPhases]time.Duration
	iters    int
	alloc    uint64
	remapped bool // the layout manager renumbered the slice
	streamed bool // the slice was evaluated out of core
}

// coreSplit accumulates, over the timed slices of a run, what the
// decomposer reports about them: the Breakdown phases, the iteration
// count, and how often the layout manager and the out-of-core path
// were taken.
type coreSplit struct {
	phases                       [trace.NumPhases]time.Duration
	wall                         time.Duration
	n, iters, remapped, streamed int
}

func (c *coreSplit) add(o sliceObs) {
	c.n++
	c.wall += o.wall
	c.iters += o.iters
	for p, d := range o.phases {
		c.phases[p] += d
	}
	if o.remapped {
		c.remapped++
	}
	if o.streamed {
		c.streamed++
	}
}

// emit writes the per-slice means as the core.* and perfmodel.*
// per-layer metrics. core.unattributed_ms is slice wall time minus the
// Breakdown total: rollback snapshot, input scan, health check, commit
// hook, file open.
func (c *coreSplit) emit(res *result) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	total := time.Duration(0)
	for p, d := range c.phases {
		res.PerLayer["core."+phaseKey(trace.Phase(p))+"_ms"] = ms(d) / n
		total += d
	}
	res.PerLayer["core.unattributed_ms"] = ms(c.wall-total) / n
	res.PerLayer["core.inner_iters"] = float64(c.iters) / n // per slice: how many slices fit in a run varies
	res.PerLayer["perfmodel.remapped_share"] = float64(c.remapped) / n
	res.PerLayer["perfmodel.streamed_share"] = float64(c.streamed) / n
}

// batchRun is one decomposer pushed through the workload's slices.
type batchRun struct {
	spec batchSpec
	in   *batchInput
	dec  *core.Decomposer
}

// firstSliceIters bounds the inner iterations of slice 0 of every
// pass. With an empty history (G = 0) nothing holds a factor row that
// slice 0 does not touch, and each inner iteration scales those rows
// by the relative ridge, 1e-6: twenty iterations leave them at 1e-120,
// the rows arriving in later slices of the clustered flickr mode start
// from there, and the stream spends the rest of its life in denormal
// arithmetic — 370 ms or 720 ms a slice depending on the seed. One
// iteration keeps the untouched rows at 1e-6 of their start and every
// later slice in normal range. Slice 0 is a warm-up slice and is never
// timed.
const firstSliceIters = 1

// feedSlice pushes slice t through the decomposer, slice 0 under
// firstSliceIters.
func feedSlice(ctx context.Context, dec *core.Decomposer, t int, call func() (core.SliceResult, error)) (core.SliceResult, error) {
	if t != 0 {
		return call()
	}
	full := dec.MaxIters()
	dec.SetMaxIters(firstSliceIters)
	defer dec.SetMaxIters(full)
	return call()
}

// step feeds slice t and reports what the call cost. Breakdown and
// MemStats are read outside the timed interval.
func (r *batchRun) step(ctx context.Context, t int) (sliceObs, error) {
	var o sliceObs
	var m0, m1 runtime.MemStats
	bd0 := *r.dec.Breakdown()
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	start := time.Now()
	res, err := feedSlice(ctx, r.dec, t, func() (core.SliceResult, error) {
		if !r.spec.blocked {
			return r.dec.ProcessSliceContext(ctx, r.in.slices[t])
		}
		// The user-visible unit of work is "decompose this file": the
		// cold open and the close belong to it.
		br, err := ooc.Open(r.in.paths[t])
		if err != nil {
			return core.SliceResult{}, err
		}
		res, err := r.dec.ProcessBlockSliceContext(ctx, br)
		if cerr := br.Close(); err == nil {
			err = cerr
		}
		return res, err
	})
	o.wall = time.Since(start)
	o.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return o, fmt.Errorf("slice %d: %w", t, err)
	}
	bd1 := r.dec.Breakdown()
	for p := range o.phases {
		o.phases[p] = bd1.Times[p] - bd0.Times[p]
	}
	o.iters = res.Iters
	o.alloc = m1.TotalAlloc - m0.TotalAlloc
	o.remapped, _ = r.dec.LastLayoutDecision()
	o.streamed = r.spec.blocked && r.dec.LastEvalMode() == perfmodel.EvalStreamed
	if r.spec.blocked && !o.streamed {
		return o, fmt.Errorf("slice %d: evaluated %s, want streamed under a %d-byte budget", t, r.dec.LastEvalMode(), r.spec.memBudget())
	}
	return o, nil
}

// sliceAt returns slice t's nonzeros, reading them back from the block
// file when the workload dropped the in-memory copy.
func (in *batchInput) sliceAt(t int) (*sptensor.Tensor, error) {
	if in.slices[t] != nil {
		return in.slices[t], nil
	}
	br, err := ooc.Open(in.paths[t])
	if err != nil {
		return nil, err
	}
	defer br.Close()
	return sptensor.MaterializeBlocks(br)
}

// modelFit is the fit 1 − ‖X−X̂‖/‖X‖ of the model [[A…; s]] against x,
// computed by the bench from the factors alone:
// ‖X−X̂‖² = ‖X‖² − 2⟨X,X̂⟩ + sᵀ(∘AᵀA)s.
func modelFit(x *sptensor.Tensor, factors []*dense.Matrix, s []float64) float64 {
	k := len(s)
	xnorm2 := x.Norm2()
	if xnorm2 == 0 {
		return math.NaN()
	}
	inner := 0.0
	for e, v := range x.Vals {
		sum := 0.0
		for j := 0; j < k; j++ {
			p := s[j]
			for m, f := range factors {
				p *= f.At(int(x.Inds[m][e]), j)
			}
			sum += p
		}
		inner += v * sum
	}
	had := dense.NewMatrix(k, k)
	had.Fill(1)
	g := dense.NewMatrix(k, k)
	for _, f := range factors {
		dense.Gram(g, f)
		dense.Hadamard(had, had, g)
	}
	tmp := make([]float64, k)
	dense.MulVec(tmp, had, s)
	err2 := xnorm2 - 2*inner + dense.Dot(s, tmp)
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2/xnorm2)
}

// factorCRC fingerprints a decomposer's model (factor bits and sₜ).
func factorCRC(d *core.Decomposer) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for m := range d.Dims() {
		f := d.Factor(m)
		for i := 0; i < f.Rows; i++ {
			for _, v := range f.Row(i) {
				put(v)
			}
		}
	}
	for _, v := range d.LastS() {
		put(v)
	}
	return h.Sum64()
}
