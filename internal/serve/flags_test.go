package serve

import (
	"encoding"
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/ingest"
	"spstream/internal/resilience"
)

// TestFlagGroups parses, through each group, one argv that gives every
// flag the group registers, and checks every field it binds. An empty
// argv leaves the receiver as it was: a flag's default is the value the
// binary put there.
func TestFlagGroups(t *testing.T) {
	start := func() Config {
		return Config{
			Options:         core.Options{Rank: 8, Algorithm: core.SpCPStream, Mu: 0.95, Resilience: &resilience.Config{Policy: resilience.SkipSlice}},
			WindowEvents:    1000,
			QueueCap:        8,
			Policy:          ingest.DropNewest,
			DrainTimeout:    30 * time.Second,
			CheckpointEvery: 10,
			CheckpointKeep:  3,
		}
	}
	for _, tc := range []struct {
		group    string
		register func(*Config, *flag.FlagSet)
		argv     []string
		set      func(*Config) // what argv changes from start
	}{
		{"Flags", (*Config).Flags, []string{
			"-rank", "5", "-alg", "optimized", "-mu", "0.5", "-shed-policy", "coalesce",
			"-max-lag", "2s", "-drain-timeout", "3s", "-spill-dir", "wal", "-spill-max-bytes", "4096",
			"-spill-fsync-interval", "50ms", "-checkpoint-dir", "ck",
		}, func(c *Config) {
			c.Options.Rank, c.Options.Algorithm, c.Options.Mu = 5, core.Optimized, 0.5
			c.Policy, c.MaxLag, c.DrainTimeout = ingest.Coalesce, 2*time.Second, 3*time.Second
			c.SpillDir, c.SpillMaxBytes, c.SpillFsyncInterval = "wal", 4096, 50*time.Millisecond
			c.CheckpointDir = "ck"
		}},
		{"GuardFlags", (*Config).GuardFlags, []string{
			"-on-error", "retry", "-slice-timeout", "7s", "-every", "4", "-keep", "5",
		}, func(c *Config) {
			c.Options.Resilience.Policy, c.Options.Resilience.SliceTimeout = resilience.RetrySlice, 7*time.Second
			c.CheckpointEvery, c.CheckpointKeep = 4, 5
		}},
		{"WindowFlags", (*Config).WindowFlags, []string{
			"-dims", "3, 4,5", "-window", "100", "-queue", "2",
		}, func(c *Config) {
			c.Dims, c.WindowEvents, c.QueueCap = []int{3, 4, 5}, 100, 2
		}},
	} {
		for _, argv := range [][]string{nil, tc.argv} {
			got, want := start(), start()
			fs := flag.NewFlagSet(tc.group, flag.ContinueOnError)
			tc.register(&got, fs)
			if err := fs.Parse(argv); err != nil {
				t.Fatalf("%s %v: %v", tc.group, argv, err)
			}
			if argv != nil {
				tc.set(&want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v:\n got %+v\nwant %+v", tc.group, argv, got, want)
			}
		}
		// The argv names every flag of the group, and nothing else.
		var names, given []string
		fs := flag.NewFlagSet(tc.group, flag.ContinueOnError)
		tc.register(&Config{}, fs)
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		for i := 0; i < len(tc.argv); i += 2 {
			given = append(given, strings.TrimPrefix(tc.argv[i], "-"))
		}
		sort.Strings(given)
		if strings.Join(names, " ") != strings.Join(given, " ") {
			t.Errorf("%s registers %v, the table gives %v", tc.group, names, given)
		}
	}
}

// TestGuardFlagsAllocateResilience: a Config with no Resilience gets a
// zero one to bind -on-error and -slice-timeout to (the Abort policy).
func TestGuardFlagsAllocateResilience(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("guard", flag.ContinueOnError)
	c.GuardFlags(fs)
	if err := fs.Parse([]string{"-slice-timeout", "1s"}); err != nil {
		t.Fatal(err)
	}
	if r := c.Options.Resilience; r == nil || r.Policy != resilience.Abort || r.SliceTimeout != time.Second {
		t.Fatalf("Resilience = %+v", r)
	}
}

// TestFlagErrors: a bad enum or -dims value fails the parse with the
// parser's own message.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct{ argv, msg string }{
		{"-alg baseline", `unknown algorithm "baseline" (want optimized or spcp)`},
		{"-shed-policy none", `ingest: unknown shed policy "none"`},
		{"-on-error ignore", `resilience: unknown policy "ignore" (want abort, retry, skip)`},
		{"-dims 10", "need at least 2 modes"},
	} {
		var c Config
		fs := flag.NewFlagSet("bad", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		c.Flags(fs)
		c.GuardFlags(fs)
		c.WindowFlags(fs)
		if err := fs.Parse(strings.Fields(tc.argv)); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want %q", tc.argv, err, tc.msg)
		}
	}
}

// TestEnumText: every value of the three enums the flags bind
// round-trips through its text form, which is the flag spelling; unknown
// text fails with the Parse function's message, and an out-of-range
// value does not marshal.
func TestEnumText(t *testing.T) {
	for _, tc := range []struct {
		v    encoding.TextMarshaler
		p    encoding.TextUnmarshaler // a fresh pointer of v's type
		text string
	}{
		{core.Optimized, new(core.Algorithm), "optimized"},
		{core.SpCPStream, new(core.Algorithm), "spcp"},
		{ingest.Block, new(ingest.ShedPolicy), "block"},
		{ingest.DropNewest, new(ingest.ShedPolicy), "drop-newest"},
		{ingest.DropOldest, new(ingest.ShedPolicy), "drop-oldest"},
		{ingest.Coalesce, new(ingest.ShedPolicy), "coalesce"},
		{ingest.Spill, new(ingest.ShedPolicy), "spill"},
		{resilience.Abort, new(resilience.Policy), "abort"},
		{resilience.RetrySlice, new(resilience.Policy), "retry"},
		{resilience.SkipSlice, new(resilience.Policy), "skip"},
	} {
		b, err := tc.v.MarshalText()
		if err != nil || string(b) != tc.text {
			t.Errorf("%T(%v).MarshalText() = %q, %v; want %q", tc.v, tc.v, b, err, tc.text)
		}
		if err := tc.p.UnmarshalText(b); err != nil || reflect.ValueOf(tc.p).Elem().Interface() != tc.v {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", b, reflect.ValueOf(tc.p).Elem(), err, tc.v)
		}
	}
	for _, tc := range []struct {
		p   encoding.TextUnmarshaler
		bad encoding.TextMarshaler
		msg string
	}{
		{new(core.Algorithm), core.Algorithm(2), `unknown algorithm "spcp-stream" (want optimized or spcp)`},
		{new(ingest.ShedPolicy), ingest.ShedPolicy(-1), `ingest: unknown shed policy "spcp-stream" (want block, drop-newest, drop-oldest, coalesce, spill)`},
		{new(resilience.Policy), resilience.Policy(3), `resilience: unknown policy "spcp-stream" (want abort, retry, skip)`},
	} {
		if err := tc.p.UnmarshalText([]byte("spcp-stream")); err == nil || err.Error() != tc.msg {
			t.Errorf("%T.UnmarshalText: err = %v, want %q", tc.p, err, tc.msg)
		}
		if b, err := tc.bad.MarshalText(); err == nil {
			t.Errorf("%T(%d).MarshalText() = %q, want an error", tc.bad, reflect.ValueOf(tc.bad).Int(), b)
		}
	}
	// String is not the text form: it names the algorithm.
	if core.SpCPStream.String() != "spcp-stream" {
		t.Errorf("SpCPStream.String() = %q", core.SpCPStream.String())
	}
}
