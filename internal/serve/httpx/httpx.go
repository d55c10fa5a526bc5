// Package httpx holds the small HTTP conventions shared between the
// single-node daemon (internal/serve) and the cluster gateway
// (internal/cluster): one serve-and-drain loop, and one Retry-After
// format — both sides must render and parse it identically, or a shard's
// backpressure hint would be rounded one way on the wire and another way
// in the gateway's retry ladder.
package httpx

import (
	"context"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Run serves h on ln until ctx ends or Serve fails, then runs drain —
// on either exit, so what the owner runs beside the server stops too —
// and shuts the server down, giving in-flight requests shutdownTimeout
// to finish. It returns Serve's error, else the shutdown's, or nil after
// a clean drain.
func Run(ctx context.Context, ln net.Listener, h http.Handler, shutdownTimeout time.Duration, drain func()) error {
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
	}
	drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if serr := srv.Shutdown(shutCtx); err == nil {
		err = serr
	}
	return err
}

// RetryAfterSeconds renders d as a Retry-After header value: whole
// delta-seconds, rounded up, floor 1 — a sub-second hint must not
// become "0" and invite a busy-poll.
func RetryAfterSeconds(d time.Duration) string {
	return strconv.Itoa(Seconds(d))
}

// Seconds is RetryAfterSeconds before formatting: ceil(d) in whole
// seconds, floor 1.
func Seconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ParseRetryAfter parses a Retry-After header value: the delta-seconds
// form ("3") or the HTTP-date form (RFC 7231), measured against now.
// It returns ok=false for an absent or malformed value; a date in the
// past parses as 0 (retry immediately).
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
