// Package spstream is a high-performance streaming sparse tensor
// decomposition library: a from-scratch Go implementation of the
// CP-stream algorithm family from "High Performance Streaming Tensor
// Decomposition" (Soh et al., IPDPS 2021), including the paper's two
// contributions — the optimized constrained CP-stream (Blocked & Fused
// ADMM, contention-free MTTKRP) and the new spCP-stream algorithm that
// keeps untouched factor rows in K×K Gram form.
//
// # Quick start
//
//	stream, _ := spstream.GeneratePreset("nips", 0.1)
//	dec, _ := spstream.New(stream.Dims, spstream.Options{
//		Rank:      16,
//		Algorithm: spstream.SpCPStream,
//	})
//	results, _ := dec.ProcessStream(stream.Source(), nil)
//	factors := dec.Factor(0) // mode-0 factor matrix
//	_ = results
//
// Slices can also come from FROSTT .tns files (LoadTNS + SplitStream)
// or any custom SliceSource implementation.
//
// The decomposition state after t slices is the rank-K model
// {A⁽¹⁾,…,A⁽ᴺ⁾, S} with S holding one temporal row per slice; slice t
// is approximated by [[A⁽¹⁾,…,A⁽ᴺ⁾; sₜ]].
package spstream

import (
	"io"

	"spstream/internal/admm"
	"spstream/internal/baselines"
	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/ingest"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// Re-exported core types. The facade keeps downstream users on one
// import path while the implementation lives in internal packages.
type (
	// Options configures a Decomposer; see the field docs in
	// internal/core.Options.
	Options = core.Options
	// Algorithm selects the solver variant.
	Algorithm = core.Algorithm
	// SliceResult reports per-slice outcomes.
	SliceResult = core.SliceResult
	// Decomposer is the streaming decomposition engine.
	Decomposer = core.Decomposer
	// Tensor is an N-way sparse tensor in coordinate format.
	Tensor = sptensor.Tensor
	// Stream is an ordered sequence of time slices.
	Stream = sptensor.Stream
	// SliceSource yields time slices one at a time.
	SliceSource = sptensor.SliceSource
	// Matrix is a dense row-major matrix.
	Matrix = dense.Matrix
	// Breakdown is the per-phase timing accumulator (Fig. 8 categories).
	Breakdown = trace.Breakdown
	// Constraint is a factor-matrix constraint for ADMM.
	Constraint = admm.Constraint
	// SynthConfig describes a synthetic streaming tensor.
	SynthConfig = synth.Config
	// ChannelSource adapts a channel of slices to SliceSource (live
	// ingestion).
	ChannelSource = sptensor.ChannelSource
	// WindowAccumulator turns an event feed into fixed-size slices.
	WindowAccumulator = sptensor.WindowAccumulator
	// Event is one timestamped nonzero for the window accumulator.
	Event = sptensor.Event
	// ResilienceConfig enables guarded slice processing (recovery
	// ladder, health checks, rollback, policies) via
	// Options.Resilience.
	ResilienceConfig = resilience.Config
	// ResiliencePolicy selects what happens after in-slice recovery
	// fails: AbortOnError, RetrySlice, or SkipSlice.
	ResiliencePolicy = resilience.Policy
	// ResilienceStats are the per-stream recovery counters
	// (Decomposer.ResilienceStats).
	ResilienceStats = resilience.Stats
	// CheckpointManager writes crash-safe periodic checkpoints into a
	// directory and restores the newest valid one. Set it as
	// ResilienceConfig.Checkpoint and whichever loop owns the run —
	// ProcessStream or an IngestPipeline — writes the checkpoints.
	CheckpointManager = resilience.Manager
	// IngestPipeline is the bounded live-ingestion pipeline: a shed
	// queue feeding a consumer goroutine, with optional lag-aware
	// graceful degradation.
	IngestPipeline = ingest.Pipeline
	// IngestConfig configures an IngestPipeline (queue capacity, shed
	// policy, max lag, degradation, drain timeout).
	IngestConfig = ingest.Config
	// ShedPolicy selects what a full ingest queue does with new slices.
	ShedPolicy = ingest.ShedPolicy
	// DegradeConfig tunes the lag-aware degradation controller
	// (IngestConfig.Degrade).
	DegradeConfig = ingest.ControllerConfig
	// SpillConfig configures the durable spill-to-disk backlog
	// (IngestConfig.Spill; a Dir implies ShedSpill): WAL directory, disk
	// budget, group-commit window. Replay after a crash starts from the
	// decomposer's own T(), and a decomposer that carries a checkpoint
	// manager (ResilienceConfig.Checkpoint) is checkpointed by the
	// pipeline, WAL offset first.
	SpillConfig = ingest.SpillConfig
	// OverloadStats is a point-in-time snapshot of the overload
	// counters (produced, processed, shed, coalesced, …).
	OverloadStats = trace.OverloadSnapshot
	// BlockSource delivers a slice one bounded block at a time — the
	// out-of-core input to Decomposer.ProcessBlockSlice. Implemented by
	// BlockReader (.spblk files) and sptensor.MemBlocks.
	BlockSource = sptensor.BlockSource
	// BlockBuf is the decode buffer a BlockSource fills in BlockInto;
	// the streamed kernels hand every worker its own, concurrently.
	BlockBuf = sptensor.BlockBuf
	// BlockReader reads a block-partitioned .spblk tensor file,
	// decoding one CRC-checked block at a time (mmap-backed where the
	// platform allows).
	BlockReader = ooc.BlockReader
	// ConvertOptions configures the bounded-memory .tns → .spblk
	// converter.
	ConvertOptions = ooc.ConvertOptions
	// ConvertStats reports what the converter did.
	ConvertStats = ooc.ConvertStats
)

// Resilience policies (see ResiliencePolicy).
const (
	// AbortOnError returns the failure to the caller (default).
	AbortOnError = resilience.Abort
	// RetrySlice re-runs the failed slice from the last-good snapshot.
	RetrySlice = resilience.RetrySlice
	// SkipSlice drops the failed slice and continues the stream.
	SkipSlice = resilience.SkipSlice
)

// Shed policies for a full ingest queue (see ShedPolicy).
const (
	// ShedBlock applies backpressure: Offer waits for space.
	ShedBlock = ingest.Block
	// ShedDropNewest rejects the incoming slice.
	ShedDropNewest = ingest.DropNewest
	// ShedDropOldest evicts the oldest queued slice.
	ShedDropOldest = ingest.DropOldest
	// ShedCoalesce merges the incoming slice into the newest queued
	// one — no events lost, coarser windows.
	ShedCoalesce = ingest.Coalesce
	// ShedSpill appends overflow to a crash-safe on-disk WAL
	// (IngestConfig.Spill) and replays it in admission order as
	// capacity frees — nothing is lost, memory stays bounded.
	ShedSpill = ingest.Spill
)

// NewIngestPipeline wraps a decomposer (or any Processor) in a bounded
// ingestion pipeline. Call Start, Offer slices from any goroutine, and
// Drain on shutdown.
func NewIngestPipeline(proc ingest.Processor, cfg IngestConfig) (*IngestPipeline, error) {
	return ingest.New(proc, cfg)
}

// ParseShedPolicy parses "block", "drop-newest", "drop-oldest",
// "coalesce" or "spill" (flag values).
func ParseShedPolicy(s string) (ShedPolicy, error) { return ingest.ParseShedPolicy(s) }

// ErrIngestDraining is returned by IngestPipeline.Offer after Drain has
// begun; ErrIngestDurability wraps what IngestConfig.OnError receives
// when an offset commit, checkpoint write or WAL close failed — the
// slice outcomes stand, their durability is in doubt.
var (
	ErrIngestDraining   = ingest.ErrDraining
	ErrIngestDurability = ingest.ErrDurability
)

// Resilience sentinel errors, matched with errors.Is.
var (
	// ErrDiverged reports a failed post-slice numerical health check.
	ErrDiverged = resilience.ErrDiverged
	// ErrSliceSkipped wraps the error of a slice dropped under
	// SkipSlice.
	ErrSliceSkipped = resilience.ErrSliceSkipped
	// ErrNoCheckpoint reports a directory with no restorable
	// checkpoint.
	ErrNoCheckpoint = resilience.ErrNoCheckpoint
)

// NewCheckpointManager creates (if needed) dir and returns a manager
// checkpointing every `every` slices, retaining the newest `keep`
// files.
func NewCheckpointManager(dir string, every, keep int) (*CheckpointManager, error) {
	return resilience.NewManager(dir, every, keep)
}

// RestoreNewestCheckpoint restores the newest valid checkpoint under
// dir into the decomposer, returning the path used.
func RestoreNewestCheckpoint(dir string, d *Decomposer) (string, error) {
	return resilience.RestoreNewest(dir, d.RestoreState)
}

// NewChannelSource wraps a channel of slices with the given mode
// lengths.
func NewChannelSource(dims []int, ch <-chan *Tensor) *ChannelSource {
	return sptensor.NewChannelSource(dims, ch)
}

// NewWindowAccumulator creates an accumulator emitting one coalesced
// slice every windowEvents events.
func NewWindowAccumulator(dims []int, windowEvents int) *WindowAccumulator {
	return sptensor.NewWindowAccumulator(dims, windowEvents)
}

// Algorithm variants.
const (
	// Optimized is CP-stream with the paper's kernel optimizations (the
	// default).
	Optimized = core.Optimized
	// SpCPStream is the paper's new Gram-form algorithm
	// (non-constrained problems only).
	SpCPStream = core.SpCPStream
)

// ParseAlgorithm parses "optimized" or "spcp" (the -alg flag value).
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// NonNeg returns the non-negativity constraint for constrained runs.
func NonNeg() Constraint { return admm.NonNeg{} }

// L1 returns the sparsity (soft-threshold) constraint with weight
// lambda.
func L1(lambda float64) Constraint { return admm.L1{Lambda: lambda} }

// NonNegMaxColNorm returns non-negativity with a column-norm cap r.
func NonNegMaxColNorm(r float64) Constraint { return admm.NonNegMaxColNorm{R: r} }

// New creates a streaming decomposer for slices with the given mode
// lengths.
func New(dims []int, opt Options) (*Decomposer, error) {
	return core.NewDecomposer(dims, opt)
}

// Comparators, exposed for benchmarking and the examples: the
// unoptimized CP-stream every speedup in the paper is measured against,
// and the related-work methods of §II.
type (
	// CPStreamBaseline is Algorithm 1 with the lock-pool MTTKRP and the
	// pass-per-operation ADMM — an experiment, not an Algorithm value.
	CPStreamBaseline = baselines.CPStream
	// OnlineCP is the accumulation-based streaming method of Zhou et
	// al. (KDD'16), adapted to sparse slices.
	OnlineCP = baselines.OnlineCP
	// OnlineSGD is the stochastic-gradient streaming method of Mardani
	// et al. (TSP'15).
	OnlineSGD = baselines.OnlineSGD
)

// NewCPStreamBaseline creates the unoptimized CP-stream comparator; it
// starts from the same factors as New with the same Options.Seed.
func NewCPStreamBaseline(dims []int, opt Options) (*CPStreamBaseline, error) {
	return baselines.NewCPStream(dims, opt)
}

// NewOnlineCP creates an OnlineCP comparator.
func NewOnlineCP(dims []int, rank, workers int, seed uint64) (*OnlineCP, error) {
	return baselines.NewOnlineCP(dims, rank, workers, seed)
}

// NewOnlineSGD creates an Online-SGD comparator.
func NewOnlineSGD(dims []int, rank, workers int, seed uint64) (*OnlineSGD, error) {
	return baselines.NewOnlineSGD(dims, rank, workers, seed)
}

// NewTensor allocates an empty sparse tensor with the given mode
// lengths.
func NewTensor(dims ...int) *Tensor { return sptensor.New(dims...) }

// LoadTNS reads a FROSTT .tns file from disk.
func LoadTNS(path string) (*Tensor, error) { return sptensor.ReadTNSFile(path) }

// ReadTNS parses FROSTT .tns text from a reader; dims may be nil to
// infer mode lengths from the data.
func ReadTNS(r io.Reader, dims []int) (*Tensor, error) { return sptensor.ReadTNS(r, dims) }

// SaveTNS writes a tensor in FROSTT .tns format.
func SaveTNS(path string, t *Tensor) error { return sptensor.WriteTNSFile(path, t) }

// SplitStream partitions an (N+1)-way tensor along streamMode into a
// stream of N-way time slices.
func SplitStream(t *Tensor, streamMode int) (*Stream, error) { return sptensor.Split(t, streamMode) }

// OpenBlocks opens a block-partitioned .spblk tensor file for
// out-of-core processing (Decomposer.ProcessBlockSlice). Close the
// reader when done.
func OpenBlocks(path string) (*BlockReader, error) { return ooc.Open(path) }

// WriteBlocks writes a tensor as a block-partitioned .spblk file with
// roughly targetBlockNNZ nonzeros per block (atomically: temp file +
// fsync + rename).
func WriteBlocks(path string, t *Tensor, targetBlockNNZ int) error {
	return ooc.WriteTensor(path, t, targetBlockNNZ)
}

// ConvertTNS converts a FROSTT .tns file to the .spblk block format
// without materializing the tensor: peak memory is bounded by
// ConvertOptions, not by the nonzero count.
func ConvertTNS(tnsPath, outPath string, opt ConvertOptions) (*ConvertStats, error) {
	return ooc.ConvertTNS(tnsPath, outPath, opt)
}

// SplitTensorBlocks wraps an in-memory tensor as a BlockSource of
// consecutive runs of at most blockNNZ nonzeros (no copying).
func SplitTensorBlocks(t *Tensor, blockNNZ int) (BlockSource, error) {
	return sptensor.SplitBlocks(t, blockNNZ)
}

// Generate materializes a synthetic stream from a SynthConfig.
func Generate(cfg SynthConfig) (*Stream, error) { return synth.Generate(cfg) }

// GeneratePreset materializes one of the built-in dataset analogues
// ("patents", "flickr", "uber", "nips") at the given scale (1 =
// benchmark size, 0.05 ≈ test size).
func GeneratePreset(name string, scale float64) (*Stream, error) {
	cfg, err := synth.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	return synth.Generate(cfg)
}

// PresetNames lists the built-in dataset analogues.
func PresetNames() []string { return synth.PresetNames() }

// WriteFactorsTNS is a small convenience that dumps every factor matrix
// of a decomposer to w as whitespace-separated text (one matrix after
// another, blank-line separated), for downstream analysis tools.
func WriteFactorsTNS(w io.Writer, d *Decomposer) error {
	for m := 0; m < len(d.Dims()); m++ {
		f := d.Factor(m)
		for i := 0; i < f.Rows; i++ {
			row := f.Row(i)
			for j, v := range row {
				sep := " "
				if j == len(row)-1 {
					sep = "\n"
				}
				if _, err := io.WriteString(w, formatFloat(v)+sep); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// SaveFactors writes WriteFactorsTNS output to a file atomically (temp
// file + fsync + rename), so an interrupted write never leaves a torn
// factor file.
func SaveFactors(path string, d *Decomposer) error {
	return resilience.AtomicWriteFile(path, func(w io.Writer) error {
		return WriteFactorsTNS(w, d)
	})
}
