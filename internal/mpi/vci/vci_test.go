package vci

import "testing"

const anyTag = -1

func TestSelectRange(t *testing.T) {
	for _, p := range []Policy{PerComm, PerTagHash, Explicit} {
		for _, n := range []int{1, 2, 3, 4, 16, 64} {
			for ctx := -2_000_001; ctx <= 8; ctx += 500_000 {
				for tag := -1; tag < 40; tag += 7 {
					v := Select(p, ctx, tag, NoHint, n)
					if v < 0 || v >= n {
						t.Fatalf("Select(%v, ctx=%d, tag=%d, n=%d) = %d out of range",
							p, ctx, tag, n, v)
					}
				}
			}
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		a := Select(PerTagHash, 3, i, NoHint, 16)
		b := Select(PerTagHash, 3, i, NoHint, 16)
		if a != b {
			t.Fatalf("tag %d: %d vs %d", i, a, b)
		}
	}
}

func TestPerCommIgnoresTag(t *testing.T) {
	for tag := 0; tag < 50; tag++ {
		if Select(PerComm, 7, tag, NoHint, 16) != Select(PerComm, 7, 0, NoHint, 16) {
			t.Fatalf("per-comm mapping moved with tag %d", tag)
		}
	}
}

func TestPerTagHashSpreads(t *testing.T) {
	// 64 tags over 16 VCIs must hit a healthy majority of the shards —
	// the whole point of the policy is that per-thread tags decontend.
	seen := map[int]bool{}
	for tag := 0; tag < 64; tag++ {
		seen[Select(PerTagHash, 0, tag, NoHint, 16)] = true
	}
	if len(seen) < 12 {
		t.Fatalf("64 tags landed on only %d/16 VCIs", len(seen))
	}
}

func TestExplicitHint(t *testing.T) {
	for hint := 0; hint < 8; hint++ {
		if got := Select(Explicit, 3, 9, hint, 8); got != hint {
			t.Fatalf("hint %d mapped to %d", hint, got)
		}
	}
	// Without a hint the explicit policy degrades to per-comm.
	if Select(Explicit, 3, 9, NoHint, 8) != Select(PerComm, 3, 9, NoHint, 8) {
		t.Fatal("explicit without hint must fall back to per-comm")
	}
}

func TestExplicitHintOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range hint")
		}
	}()
	Select(Explicit, 0, 0, 8, 8)
}

func TestSingleVCIAlwaysZero(t *testing.T) {
	for _, p := range []Policy{PerComm, PerTagHash, Explicit} {
		if Select(p, 123, 456, NoHint, 1) != 0 {
			t.Fatalf("%v: n=1 must map to 0", p)
		}
	}
}

func TestWildcard(t *testing.T) {
	if Wildcard(PerComm, anyTag, anyTag) {
		t.Fatal("per-comm AnyTag is not a cross-VCI wildcard")
	}
	if Wildcard(Explicit, anyTag, anyTag) {
		t.Fatal("explicit AnyTag is not a cross-VCI wildcard")
	}
	if !Wildcard(PerTagHash, anyTag, anyTag) {
		t.Fatal("per-tag-hash AnyTag must be a cross-VCI wildcard")
	}
	if Wildcard(PerTagHash, 5, anyTag) {
		t.Fatal("concrete tag is never a wildcard")
	}
}

func TestNormalizeValidate(t *testing.T) {
	if err := (Config{N: 16, Policy: PerTagHash}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{N: -1}).Validate(); err == nil {
		t.Fatal("negative N must not validate")
	}
	if err := (Config{N: 2048}).Validate(); err == nil {
		t.Fatal("absurd N must not validate")
	}
	if err := (Config{Policy: Policy(9)}).Validate(); err == nil {
		t.Fatal("unknown policy must not validate")
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{PerComm: "per-comm", PerTagHash: "per-tag-hash",
		Explicit: "explicit", Policy(9): "Policy(9)"}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestNegativeCtxShadows: the runtime routes collective shadows (collCtx -
// ctx) and recovery traffic (agreeBase - ctx) over large negative
// contexts. They must map consistently and not all collapse onto VCI 0.
func TestNegativeCtxShadows(t *testing.T) {
	seen := map[int]bool{}
	for c := 0; c < 32; c++ {
		seen[Select(PerComm, -1_000_000-c, 0, NoHint, 16)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("recovery contexts landed on only %d/16 VCIs", len(seen))
	}
}
