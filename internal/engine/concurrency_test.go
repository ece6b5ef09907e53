package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
)

// corpusSeqs extracts a deterministic batch of sequences for batch tests.
func corpusSeqs(t testing.TB, n int) []*extract.Sequence {
	t.Helper()
	projects := corpus.Generate(corpus.Options{Seed: 5, ModulesPerProject: 2, FuncsPerModule: 6})
	ex := extract.New(extract.Options{})
	var seqs []*extract.Sequence
	for _, p := range projects {
		for _, m := range p.Modules {
			seqs = append(seqs, ex.Module(m)...)
			if len(seqs) >= n {
				return seqs[:n]
			}
		}
	}
	return seqs
}

// fingerprint reduces a result to the fields that must not depend on
// scheduling: stream position, outcome, the found rewrite, the exact
// proposal sequence (every attempt's candidate text, in order), and the
// rule attribution.
type fingerprint struct {
	index     int
	outcome   Outcome
	cand      uint64
	round     int
	proposals string
	rules     string
}

func fingerprints(results []Result) []fingerprint {
	out := make([]fingerprint, len(results))
	for i, r := range results {
		fp := fingerprint{index: r.Index, outcome: r.Outcome, round: r.Round}
		if r.Cand != nil {
			fp.cand = ir.Hash(r.Cand)
		}
		var props []string
		for _, a := range r.Attempts {
			props = append(props, a.Candidate)
		}
		fp.proposals = strings.Join(props, "\x00")
		var rules []string
		for id := range r.RuleHits {
			rules = append(rules, id)
		}
		sort.Strings(rules)
		fp.rules = strings.Join(rules, ",")
		out[i] = fp
	}
	return out
}

// TestDeterministicAcrossWorkerCounts is the acceptance bar of the redesign:
// workers=8 must produce the identical ordered result stream as workers=1
// for the same seed.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	seqs := corpusSeqs(t, 60)
	run := func(workers int) []Result {
		sim := llm.NewSim("Gemini2.0T", 11)
		e := New(sim, Config{
			Workers: workers,
			Rounds:  4,
			Verify:  alive.Options{Samples: 128, Seed: 11},
		})
		results, _ := e.RunAll(context.Background(), Sequences(seqs...))
		return results
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	sfp, pfp := fingerprints(serial), fingerprints(parallel)
	foundSerial, foundParallel := 0, 0
	for i := range sfp {
		if sfp[i] != pfp[i] {
			t.Fatalf("result %d differs between workers=1 and workers=8:\n%+v\nvs\n%+v",
				i, sfp[i], pfp[i])
		}
		if sfp[i].outcome == Found {
			foundSerial++
		}
		if pfp[i].outcome == Found {
			foundParallel++
		}
	}
	if foundSerial != foundParallel {
		t.Fatalf("found sets differ: %d vs %d", foundSerial, foundParallel)
	}
	if foundSerial == 0 {
		t.Fatal("batch found nothing — the determinism check is vacuous")
	}
}

// TestSameSeedRunsProposeIdenticalCandidates is the regression test for the
// registry's determinism guarantee: the knowledge base reaches llm.Sim as an
// ordered RuleSet (the seed code leaked map-iteration order through
// opt.AllRuleNames), so two engines built the same way must propose the
// byte-identical candidate sequence — across fresh runs and worker counts.
func TestSameSeedRunsProposeIdenticalCandidates(t *testing.T) {
	seqs := corpusSeqs(t, 40)
	run := func(workers int) []fingerprint {
		sim := llm.NewSim("Gemini2.0T", 13)
		e := New(sim, Config{
			Workers: workers,
			Rounds:  2,
			Verify:  alive.Options{Samples: 64, Seed: 13},
		})
		results, _ := e.RunAll(context.Background(), Sequences(seqs...))
		return fingerprints(results)
	}
	first := run(1)
	again := run(1)
	wide := run(6)
	proposed := 0
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("two same-seed runs diverged at result %d:\n%+v\nvs\n%+v",
				i, first[i], again[i])
		}
		if first[i] != wide[i] {
			t.Fatalf("worker count changed result %d:\n%+v\nvs\n%+v",
				i, first[i], wide[i])
		}
		if first[i].proposals != "" {
			proposed++
		}
	}
	if proposed == 0 {
		t.Fatal("no proposals at all — the regression test is vacuous")
	}
}

// TestConcurrentRunIsRaceClean exercises every concurrent structure (worker
// pool, streaming source, verify cache, stats, extractor dedup) under
// `go test -race ./internal/engine`.
func TestConcurrentRunIsRaceClean(t *testing.T) {
	projects := corpus.Generate(corpus.Options{Seed: 7, ModulesPerProject: 2, FuncsPerModule: 5})
	ex := extract.New(extract.Options{})
	var mods []*ir.Module
	for _, p := range projects {
		mods = append(mods, p.Modules...)
	}
	sim := llm.NewSim("Llama3.3", 7)
	e := New(sim, Config{
		Workers: 8, QueueSize: 4, Rounds: 2,
		Verify: alive.Options{Samples: 64, Seed: 7},
	})
	results, stats := e.Run(context.Background(), Modules(ex, mods...))
	n := 0
	for r := range results {
		n++
		// Read live stats concurrently with the run to exercise the locks.
		_ = stats.Sequences()
		_ = stats.Usage()
		_ = stats.Stage(StageVerify)
		if r.Outcome == Errored {
			t.Fatalf("unexpected error result: %v", r.Err)
		}
	}
	if n == 0 {
		t.Fatal("streaming source yielded nothing")
	}
	if stats.Sequences() != n {
		t.Fatalf("stats saw %d sequences, channel delivered %d", stats.Sequences(), n)
	}
	if got := ex.Stats().Kept; got != n {
		t.Fatalf("extractor kept %d, engine processed %d", got, n)
	}
}

// TestCancellationDrainsCleanly cancels mid-batch and requires the result
// channel to close promptly with no further work.
func TestCancellationDrainsCleanly(t *testing.T) {
	seqs := corpusSeqs(t, 80)
	sim := llm.NewSim("Gemini2.0T", 3)
	e := New(sim, Config{Workers: 4, Rounds: 8, Verify: alive.Options{Samples: 256, Seed: 3}})
	ctx, cancel := context.WithCancel(context.Background())
	results, stats := e.Run(ctx, Sequences(seqs...))
	delivered := 0
	for r := range results {
		delivered++
		if delivered == 5 {
			cancel()
		}
		_ = r
	}
	// The channel closed (or the range would still be blocking). Everything
	// scheduled before the cancel finished or was marked Canceled; nothing
	// hangs and the counts are consistent.
	if delivered == 0 {
		t.Fatal("no results before cancellation")
	}
	if delivered > len(seqs) {
		t.Fatalf("delivered %d results for %d inputs", delivered, len(seqs))
	}
	if stats.Sequences() < delivered {
		t.Fatalf("stats recorded %d, delivered %d", stats.Sequences(), delivered)
	}
	cancel()
}

// TestCancelBeforeRun returns immediately with a closed, empty channel.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := llm.NewSim("Gemini2.0T", 3)
	e := New(sim, Config{Workers: 2})
	results, _ := e.Run(ctx, Sequences(corpusSeqs(t, 10)...))
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-results:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("cancelled run did not drain")
		}
	}
}

// TestSourceErrorSurfacesInBand: a failing source ends the run with a final
// Errored result instead of hanging or panicking.
func TestSourceErrorSurfacesInBand(t *testing.T) {
	ex := extract.New(extract.Options{})
	sim := llm.NewSim("Gemini2.0T", 3)
	e := New(sim, Config{Workers: 2})
	results, _ := e.RunAll(context.Background(), File("/nonexistent/path.ll", ex))
	if len(results) != 1 {
		t.Fatalf("expected exactly the error result, got %d results", len(results))
	}
	if results[0].Outcome != Errored || results[0].Err == nil {
		t.Fatalf("expected Errored with err, got %+v", results[0])
	}
	if errors.Is(results[0].Err, context.Canceled) {
		t.Fatal("source error must not be misreported as cancellation")
	}
}

// TestStreamSourceReportsCancellation: a stream source whose binding context
// was cancelled must not masquerade as a normally drained stream to a later
// caller holding a live context.
func TestStreamSourceReportsCancellation(t *testing.T) {
	projects := corpus.Generate(corpus.Options{Seed: 9, ModulesPerProject: 1, FuncsPerModule: 4})
	src := Modules(extract.New(extract.Options{}), projects[0].Modules[0])
	bindCtx, cancel := context.WithCancel(context.Background())
	if _, ok, err := src.Next(bindCtx); err != nil || !ok {
		t.Fatalf("first pull failed: ok=%v err=%v", ok, err)
	}
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, ok, err := src.Next(context.Background())
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
			return // cancellation surfaced — not a silent drain
		}
		if !ok {
			t.Fatal("cancelled stream reported a clean drain")
		}
		if time.Now().After(deadline) {
			t.Fatal("stream kept producing after its binding context was cancelled")
		}
	}
}

func TestParMapOrdered(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := ParMap(context.Background(), 7, items, func(_ context.Context, i, v int) int {
		return v * v
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
	if len(ParMap(context.Background(), 3, nil, func(_ context.Context, _ int, v int) int { return v })) != 0 {
		t.Fatal("empty input must give empty output")
	}
}

// TestRulebookDeterministicAcrossWorkerCounts pins that the learned
// rulebook, and the rule each result carries, do not depend on scheduling:
// witnesses that generalize to one rule ID keep the entry of the earliest
// witness in source order, as a single worker does. Seeds 1003 and 1012
// each have IDs learned from witnesses at two widths.
func TestRulebookDeterministicAcrossWorkerCounts(t *testing.T) {
	campaign := func(seed uint64, workers int) (book string, learned []string) {
		e := New(llm.NewSim("Gemini2.0T", seed), Config{
			Workers: workers,
			Rounds:  4,
			Learn:   true,
			Verify:  alive.Options{Samples: 1024, Seed: seed},
		})
		results, _ := e.RunAll(context.Background(), Corpus(corpus.Options{Seed: seed}, extract.New(extract.Options{})))
		data, err := e.Rulebook().Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Learned != nil {
				learned = append(learned, fmt.Sprintf("%d %s i%d %s", r.Index, r.Learned.ID, r.Learned.Width, r.Learned.Origin))
			}
		}
		return string(data), learned
	}
	const repeats = 3
	for _, seed := range []uint64{1003, 1012} {
		wantBook, wantLearned := campaign(seed, 1)
		for _, workers := range []int{1, 2, 8} {
			for rep := 0; rep < repeats; rep++ {
				book, learned := campaign(seed, workers)
				if book != wantBook {
					t.Fatalf("seed %d, workers %d, run %d: rulebook differs from workers=1", seed, workers, rep)
				}
				if strings.Join(learned, "\n") != strings.Join(wantLearned, "\n") {
					t.Fatalf("seed %d, workers %d, run %d: results carry different rules:\n%s\nvs workers=1:\n%s",
						seed, workers, rep, strings.Join(learned, "\n"), strings.Join(wantLearned, "\n"))
				}
			}
		}
	}
}
