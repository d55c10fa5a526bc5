package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"spstream/internal/ingest/wal"
	"spstream/internal/sptensor"
	"spstream/internal/trace"
)

// SpillConfig parameterizes the durable backlog behind the Spill shed
// policy. Dir arms it; everything else defaults.
type SpillConfig struct {
	// Dir is the WAL directory (created if missing). Keep it on the
	// same filesystem as the checkpoint directory so a crash loses
	// neither or both of a checkpoint/offset pair's durability.
	Dir string
	// MaxBytes, when positive, caps the on-disk backlog; past it new
	// overflow is shed (counted ShedSpill) instead of filling the disk.
	MaxBytes int64
	// SegmentBytes is the WAL segment rotation threshold. Default 4 MiB,
	// or a quarter of MaxBytes when that is smaller.
	SegmentBytes int64
	// FsyncInterval is the group-commit window: how much recently
	// spilled data a hard crash may lose. Zero means every spill
	// fsyncs — strict durability, one fsync per overflowing slice.
	FsyncInterval time.Duration
	// MaxRecordBytes bounds one encoded slice. Default 64 MiB.
	MaxRecordBytes int
	// FS replaces the filesystem (disk-fault injection). Default the
	// real one.
	FS wal.FS
}

// spillRecord framing: the admission timestamp precedes the tensor so
// replayed slices keep their original lag deadline.
const spillHeaderSize = 8

func encodeSpillRecord(x *sptensor.Tensor, admitted time.Time) ([]byte, error) {
	var buf bytes.Buffer
	var hdr [spillHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(admitted.UnixNano()))
	buf.Write(hdr[:])
	if err := sptensor.WriteBinary(&buf, x); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSpillRecord(payload []byte) (*sptensor.Tensor, time.Time, error) {
	if len(payload) < spillHeaderSize {
		return nil, time.Time{}, errors.New("ingest: spill record too short")
	}
	admitted := time.Unix(0, int64(binary.LittleEndian.Uint64(payload[:spillHeaderSize])))
	x, err := sptensor.ReadBinary(bytes.NewReader(payload[spillHeaderSize:]))
	if err != nil {
		return nil, time.Time{}, err
	}
	return x, admitted, nil
}

// spiller owns the WAL and the refill goroutine that reads the durable
// backlog back into the queue as capacity frees. FIFO order is
// preserved by the sticky rule: while the backlog is non-empty, every
// admission goes to the WAL (behind the queued slices' successors),
// never directly to the queue.
type spiller struct {
	log   *wal.Log
	q     *queue
	ov    *trace.Overload
	clock func() time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// backlog counts records appended (or recovered) but not yet
	// re-admitted to the queue — the sticky-spill condition. It is NOT
	// log.Pending(): a record popped off the log but still waiting for
	// queue space must keep admissions spilling or FIFO breaks.
	backlog uint64
	closed  bool // admissions ended (drain); refill keeps going
	killed  bool // emergency stop; refill gives up

	done chan struct{}
}

// newSpiller opens the WAL and seeks replay to the offset committed for
// slice counter replayFrom — the state the processor holds (0 for a
// fresh start) — making restart exactly-once with respect to committed
// slices; with no matching offset the whole backlog replays
// (at-least-once fallback).
func newSpiller(cfg SpillConfig, replayFrom int, q *queue, ov *trace.Overload, clock func() time.Time) (*spiller, error) {
	log, _, err := wal.Open(wal.Options{
		Dir:            cfg.Dir,
		SegmentBytes:   cfg.SegmentBytes,
		MaxBytes:       cfg.MaxBytes,
		MaxRecordBytes: cfg.MaxRecordBytes,
		SyncEvery:      cfg.FsyncInterval,
		FS:             cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	// Everything after the offset was produced but never folded into
	// the restored state, so it re-enters accounting as recovered
	// backlog. (No matching offset: seq is 0, replay all.)
	seq, _ := log.OffsetFor(replayFrom)
	log.SeekTo(seq)
	s := &spiller{log: log, q: q, ov: ov, clock: clock, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.backlog = log.Pending()
	ov.SpillRecovered.Add(int64(s.backlog))
	return s, nil
}

// start registers the refiller and launches it.
func (s *spiller) start() {
	s.q.addRefiller()
	go s.run()
}

// admit routes one produced slice under the Spill policy: straight to
// the queue when there is room and no backlog (fast path), otherwise
// durably to the WAL. The error return is non-nil only for the lossy
// outcome — the slice could not be made durable and was shed.
func (s *spiller) admit(x *sptensor.Tensor) error {
	s.mu.Lock()
	if s.backlog == 0 && s.q.tryPush(x) {
		s.mu.Unlock()
		return nil
	}
	// Queue full or backlog ahead of us: spill. Encoding and the disk
	// write happen under the spiller lock — admissions are serialized
	// anyway by WAL ordering, and the lock is what guarantees a
	// concurrent producer cannot slip a newer slice into the queue
	// while ours goes to disk.
	payload, err := encodeSpillRecord(x, s.clock())
	if err == nil {
		if _, err = s.log.Append(payload); err == nil {
			s.backlog++
			s.ov.Spilled.Add(1)
			s.ov.SpillBytes.Add(int64(len(payload)))
			s.cond.Signal()
			s.mu.Unlock()
			return nil
		}
	}
	s.mu.Unlock()
	// The only lossy path under Spill: the WAL refused the slice (disk
	// full, write fault, encode failure).
	s.ov.ShedSpill.Add(1)
	return fmt.Errorf("%w: spill failed: %v", ErrQueueFull, err)
}

// run is the refill loop: read the durable backlog in order and push
// it back into the queue as capacity frees.
func (s *spiller) run() {
	defer close(s.done)
	defer s.q.refillerDone()
	for {
		s.mu.Lock()
		for s.backlog == 0 && !s.closed && !s.killed {
			s.cond.Wait()
		}
		if s.killed || (s.closed && s.backlog == 0) {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		payload, seq, ok, err := s.log.Next()
		if err != nil {
			var loss *wal.LossError
			if errors.As(err, &loss) {
				// Records behind at-rest corruption are gone: account
				// them out of the backlog as shed so the invariant
				// stays exact. (SpillDrained tracks records leaving
				// the backlog, whether into the queue or lost.)
				s.ov.ShedSpill.Add(int64(loss.Lost))
				s.ov.SpillDrained.Add(int64(loss.Lost))
				s.consumeBacklog(loss.Lost)
				continue
			}
			// Closed under us (emergency stop) or unreadable state;
			// leave the backlog durable for the next run.
			return
		}
		if !ok {
			// The appender is ahead of the group commit's visibility
			// only transiently; backlog>0 with nothing readable means
			// we raced a concurrent append's bookkeeping. Re-check.
			continue
		}
		x, admitted, err := decodeSpillRecord(payload)
		if err != nil {
			// CRC passed but the payload does not decode — count it
			// out, keep draining.
			s.ov.ShedSpill.Add(1)
			s.ov.SpillDrained.Add(1)
			s.consumeBacklog(1)
			continue
		}
		if !s.q.refillPush(item{slice: x, admitted: admitted, walSeq: seq}) {
			// Killed: the record stays durable on disk; a restart
			// replays it. Rewind the reader so the in-memory cursor
			// agrees (matters only for tests that reuse the log).
			s.log.SeekTo(seq - 1)
			return
		}
		s.ov.SpillDrained.Add(1)
		s.consumeBacklog(1)
	}
}

func (s *spiller) consumeBacklog(n uint64) {
	s.mu.Lock()
	if n > s.backlog {
		n = s.backlog
	}
	s.backlog -= n
	s.mu.Unlock()
}

// pending returns the durable backlog not yet re-admitted.
func (s *spiller) pending() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog
}

// closeAdmissions tells the refiller no more spills are coming; it
// exits once the backlog is flushed into the queue.
func (s *spiller) closeAdmissions() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// kill is the emergency stop: the refiller exits at the next
// opportunity, leaving the rest of the backlog durable on disk.
func (s *spiller) kill() {
	s.mu.Lock()
	s.killed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wait blocks until the refill goroutine has exited.
func (s *spiller) wait() { <-s.done }

// commitOffset durably binds slice counter t to consumption progress,
// keeping as many older offsets as there are checkpoints to fall back to.
func (s *spiller) commitOffset(t int, seq uint64, older int) error {
	err := s.log.CommitOffset(t, seq, older)
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

// requeue returns a popped-but-unprocessed WAL item to the backlog
// accounting after a drain deadline: the record is still on disk and
// below any committed offset, so the next run replays it. Reverses the
// SpillDrained count its refill added.
func (s *spiller) requeue() {
	s.ov.SpillDrained.Add(-1)
	s.mu.Lock()
	s.backlog++
	s.mu.Unlock()
}

// close flushes the group commit and closes the WAL.
func (s *spiller) close() error { return s.log.Close() }

// abort closes the WAL without flushing — the crash-simulation path.
func (s *spiller) abort() { s.log.Abort() }
