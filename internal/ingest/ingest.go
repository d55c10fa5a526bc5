// Package ingest is the overload-robustness layer of the live
// streaming path: a bounded queue between the slice producer (event
// windowing) and the decomposer, pluggable shed policies for when the
// solver falls behind the feed, a lag-aware degradation controller
// that steps model quality down (and hysteretically back up) to match
// sustained load, and a graceful drain for shutdown.
//
// The design goal mirrors the fault-tolerance layer's (internal/
// resilience): a monitoring deployment must degrade instead of dying.
// Where resilience handles failures (NaN slices, non-SPD Grams,
// panics), ingest handles overload — the producer outpacing the
// solver. Every produced slice is accounted for exactly once:
//
//	produced == processed + failed + coalesced + shed
//
// with shed split by cause (policy, staleness, drain deadline), so an
// operator can tell "the model skipped data" apart from "the model
// aggregated data" (the Coalesce policy merges pending windows into
// one coarser slice — events aggregated, not lost).
//
// The Spill policy adds a durable tier: overflow goes to a write-ahead
// log (internal/ingest/wal) and is replayed as capacity frees — or
// after a crash — extending the invariant to
//
//	produced + spill_recovered ==
//	    processed + failed + coalesced + shed + spill_pending
package ingest

import "fmt"

// ShedPolicy selects what the bounded queue does with a new slice when
// it is full.
type ShedPolicy int

const (
	// Block applies backpressure: the producer waits for queue space.
	// No data is lost, but a slow solver stalls the feed (appropriate
	// when the producer can buffer upstream, e.g. reading a file).
	Block ShedPolicy = iota
	// DropNewest rejects the incoming slice, preserving the queued
	// backlog — freshest data is sacrificed first.
	DropNewest
	// DropOldest evicts the longest-queued slice to admit the new one —
	// the queue always holds the freshest window of the feed.
	DropOldest
	// Coalesce merges the incoming slice into the newest queued slice
	// (events aggregated into one coarser window), so the queue stays
	// bounded without losing any event mass.
	Coalesce
	// Spill overflows a full queue to a durable on-disk write-ahead log
	// (Config.Spill) instead of dropping or blocking: memory stays
	// bounded at QueueCap windows, no event is lost, and the backlog
	// survives a crash — a restart replays unconsumed segments. The
	// only lossy path is the WAL itself failing (disk full, write
	// fault), counted separately as ShedSpill. The accounting invariant
	// extends to
	//
	//	produced + spill_recovered ==
	//	    processed + failed + coalesced + shed + spill_pending
	//
	// where spill_pending is the durable backlog still on disk.
	Spill
)

// shedPolicyNames is the one spelling of each policy (its text form).
var shedPolicyNames = [...]string{Block: "block", DropNewest: "drop-newest", DropOldest: "drop-oldest", Coalesce: "coalesce", Spill: "spill"}

// String names the policy.
func (p ShedPolicy) String() string {
	if b, err := p.MarshalText(); err == nil {
		return string(b)
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(p))
}

// ParseShedPolicy parses a policy's name.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	for p, name := range shedPolicyNames {
		if s == name {
			return ShedPolicy(p), nil
		}
	}
	return Block, fmt.Errorf("ingest: unknown shed policy %q (want block, drop-newest, drop-oldest, coalesce, spill)", s)
}

// MarshalText writes the name ParseShedPolicy reads.
func (p ShedPolicy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(shedPolicyNames) {
		return nil, fmt.Errorf("ingest: unknown shed policy %d", int(p))
	}
	return []byte(shedPolicyNames[p]), nil
}

// UnmarshalText parses with ParseShedPolicy.
func (p *ShedPolicy) UnmarshalText(text []byte) (err error) {
	*p, err = ParseShedPolicy(string(text))
	return err
}
