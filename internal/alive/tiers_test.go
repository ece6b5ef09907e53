package alive

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// TestPoolKillsRepeatOffender is the CEGIS contract of the tiered
// scheduler: the input that refuted one candidate kills the next wrong
// candidate for the same window in tier 0, after a handful of executions
// instead of a sampling pass — and the counterexample it reports is a
// genuine, freshly re-executed violation. The batched tier 0 reports the
// same Checked, kill tier and counterexample text as the vector-at-a-time
// replay it replaced (the expected texts below were produced by it).
func TestPoolKillsRepeatOffender(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	nsw := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	ident := parser.MustParseFunc(`define i8 @tgt2(i8 %x, i8 %y) { ret i8 %x }`)
	pool := NewCEPool()
	opts := Options{Seed: 1, Samples: 256, Programs: interp.NewCache(), Pool: pool}

	r1 := Verify(src, nsw, opts)
	if r1.Verdict != Incorrect || r1.Tiers.KillTier == TierPool {
		t.Fatalf("first refutation: verdict %v, tier %d", r1.Verdict, r1.Tiers.KillTier)
	}
	if pool.Stats().Deposits != 1 {
		t.Fatalf("deposits = %d, want 1", pool.Stats().Deposits)
	}
	r2 := Verify(src, ident, opts)
	if r2.Verdict != Incorrect {
		t.Fatalf("identity rewrite must refute, got %v", r2.Verdict)
	}
	if r2.Tiers.KillTier != TierPool {
		t.Fatalf("second candidate killed by tier %d, want pool (%d)", r2.Tiers.KillTier, TierPool)
	}
	if r2.Checked != 1 || r2.Tiers.PoolChecked != 1 || r2.Tiers.Batched != 1 {
		t.Fatalf("pool kill took %d executions (pool %d, batched %d), want 1",
			r2.Checked, r2.Tiers.PoolChecked, r2.Tiers.Batched)
	}
	const wantCE = "Transformation doesn't verify!\nERROR: Value mismatch\nExample:\n" +
		"i8 %x = i8 127 (0x7F)\ni8 %y = i8 1 (0x01)\n" +
		"Source value: i8 -128 (0x80)\nTarget value: i8 127 (0x7F)\n"
	if got := r2.CE.Format(); got != wantCE {
		t.Fatalf("pool-kill counterexample:\n%s\nwant:\n%s", got, wantCE)
	}
	// The pooled CE must be a real violation of THIS candidate: source and
	// target outputs recomputed for the replayed input.
	ce := r2.CE
	if ce == nil || ce.SrcRet.Equal(ce.TgtRet) {
		t.Fatalf("pool-kill counterexample is not a genuine violation: %+v", ce)
	}
	// A correct pair is unaffected by the pool: the pooled vector replays
	// (it cannot falsify a refinement that holds) and the full sequence
	// still passes.
	comm := parser.MustParseFunc(`define i8 @tgt3(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)
	r3 := Verify(src, comm, opts)
	if r3.Verdict != Correct || r3.Tiers.PoolChecked != 1 || r3.Checked != 65541 {
		t.Fatalf("correct pair: verdict %v, pool checked %d, checked %d",
			r3.Verdict, r3.Tiers.PoolChecked, r3.Checked)
	}

	// Pointer pairs replay through the batched per-lane memories: the
	// counterexample carries the pooled raw pointer word and memory fill.
	msrc := parser.MustParseFunc(`define void @src(ptr %p, i8 %x) { store i8 %x, ptr %p ret void }`)
	inc := parser.MustParseFunc(`define void @t1(ptr %p, i8 %x) { %d = add i8 %x, 1 store i8 %d, ptr %p ret void }`)
	flip := parser.MustParseFunc(`define void @t2(ptr %p, i8 %x) { %d = xor i8 %x, 1 store i8 %d, ptr %p ret void }`)
	mopts := Options{Seed: 5, Samples: 128, Pool: NewCEPool()}
	if m1 := Verify(msrc, inc, mopts); m1.Verdict != Incorrect || m1.Tiers.KillTier != TierSpecial {
		t.Fatalf("memory pair: verdict %v, tier %d", m1.Verdict, m1.Tiers.KillTier)
	}
	m2 := Verify(msrc, flip, mopts)
	if m2.Checked != 1 || m2.Tiers.KillTier != TierPool {
		t.Fatalf("memory pool kill: checked %d, tier %d", m2.Checked, m2.Tiers.KillTier)
	}
	wantMemCE := "Transformation doesn't verify!\nERROR: Mismatch in memory\nExample:\n" +
		"ptr %p = ptr 0 (0x0000000000000000)\ni8 %x = i8 0 (0x00)\n" +
		"memory at %p = " + strings.TrimSpace(strings.Repeat("00 ", 64)) + "\n" +
		"Source value: void\nTarget value: void\n" +
		"Mismatch in p at byte 0: source has 0x00, target has 0x01 (poison=false)\n"
	if got := m2.CE.Format(); got != wantMemCE {
		t.Fatalf("memory pool-kill counterexample:\n%s\nwant:\n%s", got, wantMemCE)
	}
}

// TestPoolReplayKeepsOrderAcrossBatches pins that tier 0 scans replayed
// vectors in order across lane batches: with more seeds than one batch
// holds, only the last one falsifies the candidate, and Checked counts every
// replay up to it.
func TestPoolReplayKeepsOrderAcrossBatches(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	nsw := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	c := NewChecker(src, nsw, Options{Seed: 1, Samples: 256})
	var seeds []PoolVector
	for i := 0; i < interp.BatchWidth+5; i++ {
		seeds = append(seeds, PoolVector{Inputs: []interp.RVal{
			interp.Scalar(ir.I8, uint64(i)), interp.Scalar(ir.I8, 1)}})
	}
	seeds = append(seeds, PoolVector{Inputs: []interp.RVal{
		interp.Scalar(ir.I8, 127), interp.Scalar(ir.I8, 5)}})
	c.Seed(seeds)
	r := c.Verify()
	if r.Verdict != Incorrect || r.Tiers.KillTier != TierPool ||
		r.Checked != len(seeds) || r.Tiers.PoolChecked != len(seeds) {
		t.Fatalf("verdict %v, tier %d, checked %d (pool %d), want a pool kill after %d",
			r.Verdict, r.Tiers.KillTier, r.Checked, r.Tiers.PoolChecked, len(seeds))
	}
	const wantCE = "Transformation doesn't verify!\nERROR: Value mismatch\nExample:\n" +
		"i8 %x = i8 127 (0x7F)\ni8 %y = i8 5 (0x05)\n" +
		"Source value: i8 -124 (0x84)\nTarget value: i8 poison\n"
	if got := r.CE.Format(); got != wantCE {
		t.Fatalf("counterexample:\n%s\nwant:\n%s", got, wantCE)
	}
}

// TestPoolSkipsPoisonPointerVectors pins the compatibility filter of the
// batched tier 0: a replayed vector with a poison pointer argument cannot
// be pinned to its region base, so it is skipped — not counted — and the
// run is exactly an unseeded one.
func TestPoolSkipsPoisonPointerVectors(t *testing.T) {
	src := parser.MustParseFunc(`define void @src(ptr %p, i8 %x) { store i8 %x, ptr %p ret void }`)
	tgt := parser.MustParseFunc(`define void @tgt(ptr %p, i8 %x) { %d = add i8 %x, 1 store i8 %d, ptr %p ret void }`)
	opts := Options{Seed: 5, Samples: 128}
	c := NewChecker(src, tgt, opts)
	c.Seed([]PoolVector{{
		Inputs: []interp.RVal{interp.PoisonRV(ir.Ptr), interp.Scalar(ir.I8, 3)},
		Mem:    [][]byte{make([]byte, 64)},
	}})
	got := c.Verify()
	want := Verify(src, tgt, opts)
	if got.Tiers.PoolChecked != 0 {
		t.Fatalf("poison-pointer vector was replayed: %+v", got.Tiers)
	}
	if diff := resultsEqual(got, want); diff != "" {
		t.Fatalf("seeded run differs from the unseeded one: %s", diff)
	}
}

// TestTierAccounting pins that Checked is the sum of the per-tier counters
// on both the batched and the reference paths, and that correct runs
// report TierNone.
func TestTierAccounting(t *testing.T) {
	src := parser.MustParseFunc(clampSrc)
	tgt := parser.MustParseFunc(clampTgt)
	for _, res := range []Result{
		Verify(src, tgt, Options{Seed: 3, Samples: 128}),
		ReferenceVerify(src, tgt, Options{Seed: 3, Samples: 128}),
	} {
		if res.Verdict != Correct || res.Tiers.KillTier != TierNone {
			t.Fatalf("verdict %v, kill tier %d", res.Verdict, res.Tiers.KillTier)
		}
		sum := res.Tiers.PoolChecked + res.Tiers.SpecialChecked + res.Tiers.RandomChecked
		if sum != res.Checked {
			t.Fatalf("tier counts %+v do not sum to Checked %d", res.Tiers, res.Checked)
		}
		if res.Tiers.SpecialChecked == 0 || res.Tiers.RandomChecked == 0 {
			t.Fatalf("sampled run should exercise special and random tiers: %+v", res.Tiers)
		}
	}
}

// TestVerifyWidthsReseedsPool pins the sweep-level counterexample carry: a
// width refuted early reseeds later widths, which then die on a rescaled
// replay (tier 0) instead of a fresh search — while a correct pair's sweep
// is byte-for-byte what an unseeded sweep produces.
func TestVerifyWidthsReseedsPool(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	tgt := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { ret i8 %x }`)
	opts := Options{Seed: 1, Samples: 128, Programs: interp.NewCache()}
	inst := func(s, d *ir.Func) func(w int) (*ir.Func, *ir.Func, error) {
		return func(w int) (*ir.Func, *ir.Func, error) {
			sw, err := rewidthFunc(s, w)
			if err != nil {
				return nil, nil, err
			}
			dw, err := rewidthFunc(d, w)
			if err != nil {
				return nil, nil, err
			}
			return sw, dw, nil
		}
	}
	wrs := VerifyWidths([]int{8, 16, 32}, opts, nil, inst(src, tgt))
	if wrs[0].Verdict != Incorrect || wrs[0].Tiers.KillTier != TierSpecial || wrs[0].Checked != 257 {
		t.Fatalf("width 8: verdict %v tier %d checked %d", wrs[0].Verdict, wrs[0].Tiers.KillTier, wrs[0].Checked)
	}
	for _, wr := range wrs[1:] {
		if wr.Verdict != Incorrect {
			t.Fatalf("width %d: verdict %v", wr.Width, wr.Verdict)
		}
		if wr.Tiers.KillTier != TierPool || wr.Checked != 1 {
			t.Fatalf("width %d: tier %d after %d executions, want pool kill on replay",
				wr.Width, wr.Tiers.KillTier, wr.Checked)
		}
	}
	// The counterexample texts the vector-at-a-time replay produced.
	for i, want := range []string{
		"i8 %x = i8 0 (0x00)\ni8 %y = i8 1 (0x01)\nSource value: i8 1 (0x01)\nTarget value: i8 0 (0x00)\n",
		"i16 %x = i16 0 (0x0000)\ni16 %y = i16 1 (0x0001)\nSource value: i16 1 (0x0001)\nTarget value: i16 0 (0x0000)\n",
		"i32 %x = i32 0 (0x00000000)\ni32 %y = i32 1 (0x00000001)\n" +
			"Source value: i32 1 (0x00000001)\nTarget value: i32 0 (0x00000000)\n",
	} {
		want = "Transformation doesn't verify!\nERROR: Value mismatch\nExample:\n" + want
		if got := wrs[i].CE.Format(); got != want {
			t.Fatalf("width %d counterexample:\n%s\nwant:\n%s", wrs[i].Width, got, want)
		}
	}
	// Correct pairs: seeded and unseeded sweeps must match exactly.
	good := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)
	a := VerifyWidths([]int{8, 16, 32}, opts, nil, inst(src, good))
	b := VerifyWidths([]int{8, 16, 32}, opts, nil, inst(src, good))
	for i := range a {
		if a[i].Verdict != Correct || a[i].Checked != b[i].Checked {
			t.Fatalf("width %d: sweep not reproducible: %+v vs %+v", a[i].Width, a[i].Result, b[i].Result)
		}
	}
}

// rewidthFunc re-types an all-i8 scalar function at width w by textual
// substitution (a minimal local stand-in for generalize.Rewidth, which this
// package cannot import).
func rewidthFunc(f *ir.Func, w int) (*ir.Func, error) {
	return parser.ParseFunc(strings.ReplaceAll(f.String(), "i8", ir.IntT(w).String()))
}
