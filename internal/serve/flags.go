package serve

import (
	"flag"

	"spstream/internal/resilience"
)

// Flags registers the flags cpstream, watch and spstreamd all take, bound
// straight to the fields they set. In every group here a flag's default
// is the value already in the receiver, so a binary states its defaults
// once, in the Config it registers; the help text is true for every
// binary that takes the group.
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.IntVar(&c.Options.Rank, "rank", c.Options.Rank, "decomposition rank K")
	fs.TextVar(&c.Options.Algorithm, "alg", c.Options.Algorithm, "`algorithm`: optimized, spcp")
	fs.Float64Var(&c.Options.Mu, "mu", c.Options.Mu, "forgetting factor µ")
	fs.TextVar(&c.Policy, "shed-policy", c.Policy, "full-queue `policy`: block, drop-newest, drop-oldest, coalesce, spill (spstreamd refuses block: it would hang HTTP ingest)")
	fs.DurationVar(&c.MaxLag, "max-lag", c.MaxLag, "shed slices older than this at solve time (0 = never)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", c.DrainTimeout, "max time to flush the ingest backlog on shutdown")
	fs.StringVar(&c.SpillDir, "spill-dir", c.SpillDir, "durable backlog directory: queue overflow spills to a crash-safe WAL here and replays in order (implies -shed-policy spill)")
	fs.Int64Var(&c.SpillMaxBytes, "spill-max-bytes", c.SpillMaxBytes, "cap on the on-disk spill backlog; 0 = unbounded (past the cap overflow is shed)")
	fs.DurationVar(&c.SpillFsyncInterval, "spill-fsync-interval", c.SpillFsyncInterval, "WAL group-commit window — how much freshly spilled data a hard crash may lose (0 = fsync every slice)")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", c.CheckpointDir, "restore the newest checkpoint in this directory at startup, write periodic crash-safe checkpoints into it, and a final one at shutdown")
}

// GuardFlags registers the flags cpstream and spstreamd take for guarded
// processing: -on-error and -slice-timeout, bound to Options.Resilience
// (a zero one, the Abort policy, when it is nil), and the checkpoint
// cadence.
func (c *Config) GuardFlags(fs *flag.FlagSet) {
	if c.Options.Resilience == nil {
		c.Options.Resilience = &resilience.Config{}
	}
	r := c.Options.Resilience
	fs.TextVar(&r.Policy, "on-error", r.Policy, "slice-failure `policy`: abort, retry, skip")
	fs.DurationVar(&r.SliceTimeout, "slice-timeout", r.SliceTimeout, "per-slice solve deadline (e.g. 30s; 0 = none)")
	fs.IntVar(&c.CheckpointEvery, "every", c.CheckpointEvery, "checkpoint every N committed slices (with -checkpoint-dir)")
	fs.IntVar(&c.CheckpointKeep, "keep", c.CheckpointKeep, "checkpoints to retain (with -checkpoint-dir)")
}

// WindowFlags registers the event-window flags watch and spstreamd
// take. -dims has no default: a caller checks Dims after parsing.
func (c *Config) WindowFlags(fs *flag.FlagSet) {
	fs.Func("dims", "mode `lengths` of each event's coordinates, comma separated (required)", func(s string) (err error) {
		c.Dims, err = ParseDims(s)
		return err
	})
	fs.IntVar(&c.WindowEvents, "window", c.WindowEvents, "events per window/slice")
	fs.IntVar(&c.QueueCap, "queue", c.QueueCap, "max windows buffered between the feed and the solver")
}
