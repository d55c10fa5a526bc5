package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"spstream/internal/sptensor"
)

// ParseEvent parses one feed line "i j k [value]" with 1-based
// coordinates (the cmd/watch convention; the value defaults to 1).
// Anything malformed — wrong field count, out-of-range or overflowing
// coordinates, non-finite values — is an error, never a panic: this is
// the daemon's trust boundary for arbitrary client input. Exported so
// the cluster gateway (internal/cluster) routes events through the
// identical trust boundary the shards enforce.
func ParseEvent(line string, dims []int) (sptensor.Event, error) {
	fields := strings.Fields(line)
	if len(fields) != len(dims) && len(fields) != len(dims)+1 {
		return sptensor.Event{}, fmt.Errorf("want %d coordinates (+ optional value), got %d fields", len(dims), len(fields))
	}
	ev := sptensor.Event{Coord: make([]int32, len(dims)), Value: 1}
	for m := range dims {
		v, err := strconv.ParseInt(fields[m], 10, 32)
		if err != nil || v < 1 || int(v) > dims[m] {
			return sptensor.Event{}, fmt.Errorf("bad coordinate %q for mode %d (dim %d)", fields[m], m, dims[m])
		}
		ev.Coord[m] = int32(v - 1)
	}
	if len(fields) == len(dims)+1 {
		v, err := strconv.ParseFloat(fields[len(dims)], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return sptensor.Event{}, fmt.Errorf("bad value %q", fields[len(dims)])
		}
		ev.Value = v
	}
	return ev, nil
}

// ParseDims parses the -dims flag every event-feed front end takes
// (watch, spstreamd, the gateway): comma-separated mode lengths, at
// least two, each positive.
func ParseDims(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("-dims is required")
	}
	var dims []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad dimension %q", part)
		}
		dims = append(dims, d)
	}
	if len(dims) < 2 {
		return nil, errors.New("need at least 2 modes")
	}
	return dims, nil
}
