// Package netchaos is the network layer of the fault-injection
// discipline: a deterministic in-process TCP fault proxy that fronts
// any litmus-serve endpoint and injects the failure modes real networks
// exhibit between client and node — added latency, response stalls and
// blackholes, mid-body connection resets, full src→dst partitions, and
// slow-drip bodies. Where internal/faults breaks the data a node
// computes on, netchaos breaks the wire the answer travels over; the
// cluster chaos suite runs both router-side defenses (circuit breakers,
// hedging, failover) against it and asserts nothing is lost and nothing
// changes byte-for-byte.
//
// Determinism contract: injection follows the engine's discipline. A
// proxy fronts one directed link (src → dst); the faults drawn for the
// n-th accepted connection come from a private generator seeded by a
// splitmix64 mix of (Seed, FNV-64a(src), FNV-64a(dst), n) — never from
// shared state or the clock — so the fault schedule is a pure function
// of (spec, seed, link, ordinal). The same seed replays the same
// schedule byte-for-byte; Proxy.Schedule exposes the realized draws and
// ScheduleFor recomputes them from scratch, so suites can pin the two
// equal.
package netchaos

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/seedmix"
)

// Partition is one directional src→dst partition rule. "*" on either
// side matches any label.
type Partition struct {
	Src, Dst string
}

// String renders the rule back into spec form.
func (p Partition) String() string { return p.Src + "->" + p.Dst }

// matches reports whether the rule partitions the (src, dst) link.
func (p Partition) matches(src, dst string) bool {
	return (p.Src == "*" || p.Src == src) && (p.Dst == "*" || p.Dst == dst)
}

// Spec is one link's fault configuration. The zero value injects
// nothing. Build with ParseSpec or construct directly; a nil *Spec is
// inert everywhere.
type Spec struct {
	// Latency is added to every connection before bytes flow (the
	// one-way delay of a congested path).
	Latency time.Duration
	// Jitter widens Latency: each connection draws a uniform offset in
	// [-Jitter, +Jitter] (clamped at zero total).
	Jitter time.Duration
	// Stall is the probability a connection blackholes: accepted, bytes
	// read and discarded, no response ever — the gray failure that
	// looks alive at the TCP level and dead above it.
	Stall float64
	// Reset is the probability the response is torn mid-body: a prefix
	// of the upstream bytes is forwarded, then the connection is reset
	// (RST, not FIN).
	Reset float64
	// Drip is the probability the response body arrives in slow small
	// chunks (a saturated or shaped path) — the "slow node" that
	// hedging defends against.
	Drip float64
	// Partitions are full directional cuts; a proxy whose (src, dst)
	// matches any rule blackholes every connection.
	Partitions []Partition
}

// Drip pacing: an affected connection's upstream bytes are relayed in
// dripChunk-byte writes separated by dripDelay. Fixed constants keep
// the grammar small and the schedule a pure function of the draw bit.
const (
	dripChunk = 256
	dripDelay = 2 * time.Millisecond
)

// resetWindow bounds how many response bytes flow before an injected
// reset tears the connection; the exact prefix length is drawn per
// connection so resets land everywhere from pre-header to mid-body.
const resetWindow = 4096

// ParseSpec builds a Spec from a comma-separated fault list:
//
//	latency=50ms,jitter=10ms,stall=0.1,reset=0.05,drip=0.2,partition=a->b
//
// Durations use Go syntax (time.ParseDuration); probabilities are in
// [0, 1]; partition entries are directional src->dst pairs with "*" as
// a wildcard on either side and may repeat. An empty spec returns nil
// (no faults). The grammar is fuzzed like faults.ParseSpec: any
// accepted spec round-trips through String.
func ParseSpec(spec string) (*Spec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	s := &Spec{}
	any := false
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, hasVal := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		if !hasVal || val == "" {
			return nil, fmt.Errorf("netchaos: entry %q needs a value (name=value)", entry)
		}
		switch name {
		case "latency", "jitter":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("netchaos: bad duration in %q: %v", entry, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("netchaos: negative duration in %q", entry)
			}
			if name == "latency" {
				s.Latency = d
			} else {
				s.Jitter = d
			}
		case "stall", "reset", "drip":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("netchaos: bad probability in %q: %v", entry, err)
			}
			if math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("netchaos: probability %v in %q outside [0, 1]", p, entry)
			}
			switch name {
			case "stall":
				s.Stall = p
			case "reset":
				s.Reset = p
			case "drip":
				s.Drip = p
			}
		case "partition":
			src, dst, ok := strings.Cut(val, "->")
			src, dst = strings.TrimSpace(src), strings.TrimSpace(dst)
			if !ok || src == "" || dst == "" {
				return nil, fmt.Errorf("netchaos: partition %q wants src->dst", entry)
			}
			if strings.Contains(dst, "->") {
				return nil, fmt.Errorf("netchaos: partition %q has more than one ->", entry)
			}
			s.Partitions = append(s.Partitions, Partition{Src: src, Dst: dst})
		default:
			return nil, fmt.Errorf("netchaos: unknown fault %q (want latency, jitter, stall, reset, drip, partition)", name)
		}
		any = true
	}
	if !any {
		return nil, nil
	}
	return s, nil
}

// String renders the spec back into canonical parseable form: fixed
// fault order, zero-valued faults omitted, partitions in configuration
// order. ParseSpec(s.String()) reproduces s for any parser-accepted
// input.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.Latency != 0 {
		parts = append(parts, "latency="+s.Latency.String())
	}
	if s.Jitter != 0 {
		parts = append(parts, "jitter="+s.Jitter.String())
	}
	if s.Stall != 0 {
		parts = append(parts, "stall="+trimFloat(s.Stall))
	}
	if s.Reset != 0 {
		parts = append(parts, "reset="+trimFloat(s.Reset))
	}
	if s.Drip != 0 {
		parts = append(parts, "drip="+trimFloat(s.Drip))
	}
	for _, p := range s.Partitions {
		parts = append(parts, "partition="+p.String())
	}
	return strings.Join(parts, ",")
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Active reports whether the spec injects anything; false for nil.
func (s *Spec) Active() bool {
	return s != nil && (s.Latency != 0 || s.Jitter != 0 || s.Stall != 0 ||
		s.Reset != 0 || s.Drip != 0 || len(s.Partitions) > 0)
}

// Partitioned reports whether the spec cuts the (src, dst) link
// entirely.
func (s *Spec) Partitioned(src, dst string) bool {
	if s == nil {
		return false
	}
	for _, p := range s.Partitions {
		if p.matches(src, dst) {
			return true
		}
	}
	return false
}

// ConnFault is the realized fault draw for one accepted connection — a
// row of the fault schedule. Partitioned dominates Stall dominates
// Reset/Drip; Latency applies to every non-blackholed connection.
type ConnFault struct {
	Ordinal     uint64        `json:"ordinal"`
	Latency     time.Duration `json:"latency_ns"`
	Stall       bool          `json:"stall"`
	Reset       bool          `json:"reset"`
	ResetAfter  int           `json:"reset_after,omitempty"` // upstream bytes forwarded before the RST
	Drip        bool          `json:"drip"`
	Partitioned bool          `json:"partitioned"`
}

// Blackholed reports whether the connection never gets a response byte.
func (f ConnFault) Blackholed() bool { return f.Partitioned || f.Stall }

// connRNG returns the private generator for the link's n-th connection —
// the determinism contract of the package.
func connRNG(seed int64, src, dst string, ordinal uint64) *rand.Rand {
	z := seedmix.SplitMix64(seedmix.SplitMix64(uint64(seed)) ^ seedmix.SplitMix64(seedmix.FNV64a(src)) ^ seedmix.SplitMix64(seedmix.FNV64a(dst)) ^ seedmix.SplitMix64(ordinal))
	return rand.New(rand.NewSource(int64(z &^ (1 << 63))))
}

// Draw computes the fault schedule row for the link's n-th connection —
// a pure function of (spec, seed, src, dst, ordinal). Proxies call this
// at accept time; suites call it to verify a realized schedule.
func (s *Spec) Draw(seed int64, src, dst string, ordinal uint64) ConnFault {
	f := ConnFault{Ordinal: ordinal}
	if s == nil {
		return f
	}
	f.Partitioned = s.Partitioned(src, dst)
	rng := connRNG(seed, src, dst, ordinal)
	// Fixed draw order — latency, stall, reset, reset offset, drip — so
	// the schedule never depends on which faults are enabled downstream
	// of an earlier one.
	f.Latency = s.Latency
	if s.Jitter > 0 {
		off := time.Duration((2*rng.Float64() - 1) * float64(s.Jitter))
		f.Latency += off
		if f.Latency < 0 {
			f.Latency = 0
		}
	}
	if s.Stall > 0 && rng.Float64() < s.Stall {
		f.Stall = true
	}
	if s.Reset > 0 && rng.Float64() < s.Reset {
		f.Reset = true
		f.ResetAfter = rng.Intn(resetWindow)
	}
	if s.Drip > 0 && rng.Float64() < s.Drip {
		f.Drip = true
	}
	return f
}

// ScheduleFor recomputes the fault schedule rows for the given ordinals
// from scratch — the reference a realized Proxy.Schedule must match
// byte-for-byte under the same (spec, seed, link).
func (s *Spec) ScheduleFor(seed int64, src, dst string, ordinals []uint64) []ConnFault {
	out := make([]ConnFault, len(ordinals))
	for i, n := range ordinals {
		out[i] = s.Draw(seed, src, dst, n)
	}
	return out
}
