// Package vci is the communicator→VCI mapping policy layer for the
// sharded runtime: pure, deterministic functions that pick which virtual
// communication interface an operation lands on, given the communicator
// context, tag and an optional explicit hint. Sender and receiver run the
// same function over the same inputs, so a message and its matching
// receive always meet on the same VCI without any coordination — the
// property that makes independent per-VCI critical sections possible
// (Zambre et al., "How I Learned to Stop Worrying About User-Visible
// Endpoints and Love MPI").
//
// The package holds no state and performs no simulation; it is part of
// the deterministic core (docs/ARCHITECTURE.md).
package vci

import "fmt"

// Policy selects how operations are distributed over the VCIs of a proc.
type Policy int

const (
	// PerComm maps every operation of one communicator to one VCI (hash
	// of the context id). Communicator-disjoint phases never contend, and
	// wildcard receives stay trivially correct: all traffic of the comm
	// is on a single VCI.
	PerComm Policy = iota
	// PerTagHash maps by (context, tag), spreading a single communicator
	// over all VCIs when tags differ (e.g. one tag per thread). AnyTag
	// receives can no longer name a single VCI and take the cross-VCI
	// wildcard path.
	PerTagHash
	// Explicit uses the communicator's VCI hint (Comm.SetVCI); comms
	// without a hint fall back to the PerComm hash.
	Explicit
)

// String names the policy as used in figures and flags.
func (p Policy) String() string {
	switch p {
	case PerComm:
		return "per-comm"
	case PerTagHash:
		return "per-tag-hash"
	case Explicit:
		return "explicit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config is the sharding configuration of one world: how many VCIs each
// proc runs and how operations are mapped onto them.
type Config struct {
	// N is the number of VCIs per proc; 0 normalizes to 1 (one shard,
	// whose section is the global critical section).
	N int
	// Policy is the mapping policy.
	Policy Policy
}

// Normalize returns c with N clamped to at least 1.
func (c Config) Normalize() Config {
	if c.N < 1 {
		c.N = 1
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("vci: negative VCI count %d", c.N)
	}
	if c.N > 1024 {
		return fmt.Errorf("vci: VCI count %d exceeds 1024", c.N)
	}
	switch c.Policy {
	case PerComm, PerTagHash, Explicit:
		return nil
	default:
		return fmt.Errorf("vci: unknown policy %d", int(c.Policy))
	}
}

// NoHint marks a communicator without an explicit VCI assignment.
const NoHint = -1

// Select returns the VCI index in [0, n) for an operation on (ctx, tag)
// under the given policy. hint is the communicator's explicit VCI (NoHint
// when unset). Both sides of a match must call Select with identical
// inputs — the mapping deliberately ignores source/destination ranks so
// AnySource stays shardable; only AnyTag under PerTagHash is ambiguous
// (see Wildcard).
func Select(p Policy, ctx, tag, hint, n int) int {
	if n <= 1 {
		return 0
	}
	switch p {
	case PerTagHash:
		return int(mix(uint64(int64(ctx))*0x9e3779b97f4a7c15^uint64(int64(tag))) % uint64(n))
	case Explicit:
		if hint != NoHint {
			if hint < 0 || hint >= n {
				panic(fmt.Sprintf("vci: explicit hint %d out of range [0,%d)", hint, n))
			}
			return hint
		}
		fallthrough
	default: // PerComm
		return int(mix(uint64(int64(ctx))) % uint64(n))
	}
}

// Wildcard reports whether a receive posted with the given tag cannot be
// mapped to one VCI under the policy and must take the cross-VCI path.
// anyTag is the runtime's AnyTag sentinel value for tag.
func Wildcard(p Policy, tag, anyTag int) bool {
	return p == PerTagHash && tag == anyTag
}

// mix is a 64-bit finalizer (splitmix64) giving a well-spread deterministic
// hash for small, possibly negative, context and tag values.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
