package generalize_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/ir"
	"repro/internal/llm"
)

// TestProofReuseMatchesFullSweep is the differential for witness-proof
// reuse: every Found witness of the corpus campaigns at seeds 1-3 is
// generalized with and without its verify-stage proof, each variant in
// campaign order with its own counterexample pool as the engine runs it.
// Rules, reasons and rejections with their counterexamples must match, and
// the run with the proof executes exactly the vectors it skipped fewer. A
// sweep reuses the proof only at the width whose instantiation hashes
// equal to the witness pair, so the per-width differential checks the
// witness pair itself through alive.VerifyWidths: verdict,
// counterexample, kill tier and exhaustiveness must not depend on the
// proof.
func TestProofReuseMatchesFullSweep(t *testing.T) {
	applied := 0
	for seed := uint64(1); seed <= 3; seed++ {
		verify := alive.Options{Samples: 1024, Seed: seed}
		e := engine.New(llm.NewSim("Gemini2.0T", seed), engine.Config{Workers: 1, Rounds: 4, Learn: true, Verify: verify})
		results, stats := e.RunAll(context.Background(), engine.Corpus(corpus.Options{Seed: seed}, extract.New(extract.Options{})))
		if widths, skipped := stats.ProofReuse(); widths == 0 || skipped == 0 {
			t.Fatalf("seed %d: the engine's sweeps never reused a witness proof", seed)
		}
		full := generalize.Options{Verify: alive.Options{Pool: alive.NewCEPool()}}
		reuse := generalize.Options{Verify: alive.Options{Pool: alive.NewCEPool()}}
		for _, r := range results {
			if r.Outcome != engine.Found {
				continue
			}
			proof := &alive.Proof{Src: ir.Hash(r.Src), Tgt: ir.Hash(r.Cand), Result: alive.Verify(r.Src, r.Cand, verify)}
			a := generalize.Generalize(r.Src, r.Cand, nil, full)
			b := generalize.Generalize(r.Src, r.Cand, proof, reuse)
			where := fmt.Sprintf("seed %d, window %d", seed, r.Index)
			if diff := generalizeDiff(a, b); diff != "" {
				t.Fatalf("%s: %s", where, diff)
			}
			if b.Checked+b.Skipped != a.Checked || (b.ProvenWidths > 0) != (b.Checked < a.Checked) {
				t.Fatalf("%s: checked %d with the proof (%d skipped at %d widths), %d without",
					where, b.Checked, b.Skipped, b.ProvenWidths, a.Checked)
			}
			applied += b.ProvenWidths

			// The width label is unused: inst returns the witness pair.
			witness := func(proof *alive.Proof) alive.WidthResult {
				return alive.VerifyWidths([]int{0}, alive.Options{Samples: 1024, Seed: 1, Pool: alive.NewCEPool()}, proof,
					func(int) (*ir.Func, *ir.Func, error) { return r.Src, r.Cand, nil })[0]
			}
			x, y := witness(nil), witness(proof)
			if diff := widthDiff(x, y); diff != "" {
				t.Fatalf("%s, witness width: %s", where, diff)
			}
			if reusable := proof.Result.Verdict == alive.Correct && proof.Result.Exhaustive && !hasPtrParam(r.Src); reusable != (y.Skipped > 0) {
				t.Fatalf("%s, witness width: proof reusable %v, skipped %d", where, reusable, y.Skipped)
			}
		}
	}
	if applied == 0 {
		t.Fatal("no sweep reused a proof: the differential is vacuous")
	}
}

func hasPtrParam(fn *ir.Func) bool {
	for _, p := range fn.Params {
		if ir.IsPtr(p.Ty) {
			return true
		}
	}
	return false
}

func generalizeDiff(a, b generalize.Result) string {
	if a.Reason != b.Reason {
		return fmt.Sprintf("reason %q vs %q", a.Reason, b.Reason)
	}
	if (a.Rule == nil) != (b.Rule == nil) {
		return fmt.Sprintf("rule presence %v vs %v", a.Rule != nil, b.Rule != nil)
	}
	if a.Rule != nil {
		ra, err := generalize.NewRulebook([]*generalize.Rule{a.Rule}).Encode()
		if err != nil {
			return err.Error()
		}
		rb, err := generalize.NewRulebook([]*generalize.Rule{b.Rule}).Encode()
		if err != nil {
			return err.Error()
		}
		if string(ra) != string(rb) {
			return fmt.Sprintf("rule\n%s\nvs\n%s", ra, rb)
		}
	}
	if len(a.Rejected) != len(b.Rejected) {
		return fmt.Sprintf("%d rejections vs %d", len(a.Rejected), len(b.Rejected))
	}
	for i, x := range a.Rejected {
		y := b.Rejected[i]
		if x.Width != y.Width || fmt.Sprint(x.Conds) != fmt.Sprint(y.Conds) || x.Err != y.Err || ceText(x.CE) != ceText(y.CE) {
			return fmt.Sprintf("rejection %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func widthDiff(x, y alive.WidthResult) string {
	switch {
	case x.Width != y.Width || x.Verdict != y.Verdict || x.Err != y.Err:
		return fmt.Sprintf("width/verdict/err %d %v %q vs %d %v %q", x.Width, x.Verdict, x.Err, y.Width, y.Verdict, y.Err)
	case ceText(x.CE) != ceText(y.CE):
		return fmt.Sprintf("counterexample\n%s\nvs\n%s", ceText(x.CE), ceText(y.CE))
	case x.Tiers.KillTier != y.Tiers.KillTier:
		return fmt.Sprintf("kill tier %d vs %d", x.Tiers.KillTier, y.Tiers.KillTier)
	case x.Exhaustive != y.Exhaustive:
		return fmt.Sprintf("exhaustive %v vs %v", x.Exhaustive, y.Exhaustive)
	case x.Skipped != 0 || y.Checked+y.Skipped != x.Checked:
		return fmt.Sprintf("checked %d (skipped %d) vs %d", y.Checked, y.Skipped, x.Checked)
	}
	return ""
}

func ceText(ce *alive.CounterExample) string {
	if ce == nil {
		return ""
	}
	return ce.Format()
}
