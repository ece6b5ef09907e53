package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/alive"
	"repro/internal/generalize"
	"repro/internal/llm"
	"repro/internal/wasm"
)

// StageMetrics is a snapshot of one pipeline stage's counters.
type StageMetrics struct {
	Invocations int
	// Seconds is the stage's accumulated latency: virtual seconds for the
	// propose stage (the provider's throughput model), measured wall seconds
	// for the local preprocess/filter/verify stages.
	Seconds float64
}

// Stats aggregates a run. All methods are safe to call concurrently with a
// run in flight; numbers are final once the result channel has closed. An
// Engine accumulates stats across runs until Reset is called.
type Stats struct {
	mu        sync.Mutex
	sequences int
	byOutcome map[Outcome]int
	usage     llm.Usage
	stages    map[string]*StageMetrics
	cacheHits int
	storeHits int
	ruleHits  map[string]int
	learned   int
	panics    int // sequences recovered from a worker panic (quarantined)
	degraded  int // sequences answered by the KB proposer (circuit open)

	// Tiered-verification counters (see alive.TierStats): how many refuted
	// candidates each scheduler tier killed, and the total input vectors
	// the verify stage executed, split by execution path (lane-batched
	// versus the reference interpreter).
	poolKills, specialKills, randomKills int
	verifyExecs                          int
	batchedExecs, fallbackExecs          int

	// generalizeExecs counts the input vectors the generalize stage's
	// width sweeps executed. It is kept apart from verifyExecs, which
	// counts the verify stage only. provenWidths counts the sweep widths
	// that reused the verify stage's proof of the witness pair, and
	// provenSkipped the exhaustive vectors they did not re-execute.
	generalizeExecs             int
	provenWidths, provenSkipped int

	// Lift-coverage counters (wasm frontend): how many functions the wasm
	// lifter saw across submitted modules, how many made it into the
	// engine, and why the rest were skipped.
	lift wasm.LiftStats
}

// TierKills is a snapshot of the per-tier kill counters of the verify
// stage's scheduler.
type TierKills struct {
	Pool    int // tier 0: replayed counterexamples from the campaign pool
	Special int // tier 1: exhaustive/corner/poison phases
	Random  int // tier 2: random sampling
}

func newStats() *Stats {
	return &Stats{
		byOutcome: make(map[Outcome]int),
		stages:    make(map[string]*StageMetrics),
		ruleHits:  make(map[string]int),
	}
}

func (s *Stats) recordResult(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sequences++
	s.byOutcome[r.Outcome]++
	s.usage.Add(r.Usage)
	for id, n := range r.RuleHits {
		s.ruleHits[id] += n
	}
	if r.Learned != nil {
		s.learned++
	}
}

func (s *Stats) recordStage(name string, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.stages[name]
	if m == nil {
		m = &StageMetrics{}
		s.stages[name] = m
	}
	m.Invocations++
	m.Seconds += seconds
}

func (s *Stats) recordCacheHit() {
	s.mu.Lock()
	s.cacheHits++
	s.mu.Unlock()
}

func (s *Stats) recordStoreHit() {
	s.mu.Lock()
	s.storeHits++
	s.mu.Unlock()
}

func (s *Stats) recordPanic() {
	s.mu.Lock()
	s.panics++
	s.mu.Unlock()
}

func (s *Stats) recordDegraded() {
	s.mu.Lock()
	s.degraded++
	s.mu.Unlock()
}

// recordVerify tallies one actual (non-cached) verification: the tier that
// killed the candidate (alive.TierNone..TierRandom), how many input vectors
// ran, and how they split between the lane-batched path and the reference
// interpreter.
func (s *Stats) recordVerify(checked int, tiers alive.TierStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verifyExecs += checked
	s.batchedExecs += tiers.Batched
	s.fallbackExecs += tiers.Fallback
	switch tiers.KillTier {
	case alive.TierPool:
		s.poolKills++
	case alive.TierSpecial:
		s.specialKills++
	case alive.TierRandom:
		s.randomKills++
	}
}

// recordGeneralize tallies the input vectors one generalize run executed
// and the witness-proof reuse that spared it work.
func (s *Stats) recordGeneralize(res generalize.Result) {
	s.mu.Lock()
	s.generalizeExecs += res.Checked
	s.provenWidths += res.ProvenWidths
	s.provenSkipped += res.Skipped
	s.mu.Unlock()
}

// RecordLift folds one module's wasm lift coverage into the run's stats.
// The wasm sources call it as they lift; services submitting lifted
// functions directly call it themselves.
func (s *Stats) RecordLift(st wasm.LiftStats) {
	s.mu.Lock()
	s.lift.Merge(st)
	s.mu.Unlock()
}

// LiftCoverage returns a copy of the accumulated wasm lift-coverage
// counters: functions seen, lifted, skipped, and the per-reason skip tally.
// All zero when no wasm module fed this run.
func (s *Stats) LiftCoverage() wasm.LiftStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := wasm.LiftStats{}
	out.Merge(s.lift)
	return out
}

// Sequences is the number of sequences that have completed the loop.
func (s *Stats) Sequences() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sequences
}

// Outcome returns the tally for one outcome.
func (s *Stats) Outcome(o Outcome) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byOutcome[o]
}

// ByOutcome returns a copy of the outcome tallies.
func (s *Stats) ByOutcome() map[Outcome]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Outcome]int, len(s.byOutcome))
	for k, v := range s.byOutcome {
		out[k] = v
	}
	return out
}

// Usage returns the accumulated provider usage.
func (s *Stats) Usage() llm.Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage
}

// Stage returns a snapshot of one stage's metrics (see StageNames).
func (s *Stats) Stage(name string) StageMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.stages[name]; m != nil {
		return *m
	}
	return StageMetrics{}
}

// RuleHits returns a copy of the per-rule attribution tallies: how often
// each registry rule (keyed by rule ID) closed a verified finding.
func (s *Stats) RuleHits() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.ruleHits))
	for k, v := range s.ruleHits {
		out[k] = v
	}
	return out
}

// VerifyCacheHits is the number of verifications skipped by the cache.
func (s *Stats) VerifyCacheHits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheHits
}

// StoreHits is the number of sequences short-circuited by Config.Lookup —
// results served from a persistent store instead of recomputed.
func (s *Stats) StoreHits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeHits
}

// Panics is the number of sequences recovered from a worker panic — each
// one produced an OutcomePanicked result and a quarantine entry
// (Engine.Quarantined) instead of crashing the campaign.
func (s *Stats) Panics() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics
}

// DegradedSeqs is the number of sequences answered by the knowledge-base
// proposer while the provider's circuit breaker was open.
func (s *Stats) DegradedSeqs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// TierKills returns how many refuted candidates each verification tier
// killed (actual verifications only; cache hits don't re-count).
func (s *Stats) TierKills() TierKills {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TierKills{Pool: s.poolKills, Special: s.specialKills, Random: s.randomKills}
}

// VerifyExecs is the total number of input vectors the verify stage
// executed across all verifications.
func (s *Stats) VerifyExecs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyExecs
}

// GeneralizeExecs is the total number of input vectors the generalize
// stage's width sweeps executed (Config.Learn). VerifyExecs does not
// include them.
func (s *Stats) GeneralizeExecs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generalizeExecs
}

// ProofReuse reports how many generalize sweep widths reused the verify
// stage's proof of their witness pair, and how many exhaustive vectors
// they skipped because of it. GeneralizeExecs does not include the
// skipped vectors.
func (s *Stats) ProofReuse() (widths, skipped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.provenWidths, s.provenSkipped
}

// BatchExecs splits VerifyExecs by execution path: vectors run on the
// lane-batched interpreter versus vectors run by the reference interpreter
// (alive.TierStats.Fallback, which the Checker never produces, so fallback
// is 0 for engine campaigns). batched+fallback == VerifyExecs.
func (s *Stats) BatchExecs() (batched, fallback int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batchedExecs, s.fallbackExecs
}

// BatchCoverage is the fraction of verify executions that ran lane-batched,
// in [0, 1]; it reports 1 when nothing has run yet.
func (s *Stats) BatchCoverage() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.verifyExecs == 0 {
		return 1
	}
	return float64(s.batchedExecs) / float64(s.verifyExecs)
}

// LearnedFindings is the number of Found results backed by a learned rule
// (Config.Learn). Distinct rules are on Engine.Learned; this counts results.
func (s *Stats) LearnedFindings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.learned
}

// Reset clears every counter (typically between runs of a reused Engine).
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sequences = 0
	s.byOutcome = make(map[Outcome]int)
	s.usage = llm.Usage{}
	s.stages = make(map[string]*StageMetrics)
	s.cacheHits = 0
	s.storeHits = 0
	s.ruleHits = make(map[string]int)
	s.learned = 0
	s.panics = 0
	s.degraded = 0
	s.poolKills, s.specialKills, s.randomKills = 0, 0, 0
	s.verifyExecs = 0
	s.batchedExecs, s.fallbackExecs = 0, 0
	s.generalizeExecs = 0
	s.provenWidths, s.provenSkipped = 0, 0
	s.lift = wasm.LiftStats{}
}

// Print renders a human-readable summary of the run.
func (s *Stats) Print(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "sequences: %d\n", s.sequences)
	outs := make([]string, 0, len(s.byOutcome))
	for o := range s.byOutcome {
		outs = append(outs, string(o))
	}
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Fprintf(w, "  %-14s %d\n", o, s.byOutcome[Outcome(o)])
	}
	fmt.Fprintf(w, "usage: %d in / %d out tokens, %.1f virtual s, $%.4f\n",
		s.usage.InputTokens, s.usage.OutputTokens, s.usage.VirtualSeconds, s.usage.CostUSD)
	for _, name := range StageNames() {
		m := s.stages[name]
		switch {
		case m == nil:
		case name == StagePropose:
			// The provider's throughput model, not wall time.
			fmt.Fprintf(w, "stage %-11s %6d calls, %8.2f virtual s\n", name, m.Invocations, m.Seconds)
		default:
			fmt.Fprintf(w, "stage %-11s %6d calls, %8.2fs\n", name, m.Invocations, m.Seconds)
		}
	}
	if s.cacheHits > 0 {
		fmt.Fprintf(w, "verify cache hits: %d\n", s.cacheHits)
	}
	if s.storeHits > 0 {
		fmt.Fprintf(w, "store hits (results served from a prior campaign): %d\n", s.storeHits)
	}
	if s.verifyExecs > 0 {
		fmt.Fprintf(w, "verify executions: %d vectors (kills: pool %d, special %d, random %d)\n",
			s.verifyExecs, s.poolKills, s.specialKills, s.randomKills)
		fmt.Fprintf(w, "batch coverage: %.1f%% (%d batched, %d per-vector fallback)\n",
			100*float64(s.batchedExecs)/float64(s.verifyExecs), s.batchedExecs, s.fallbackExecs)
	}
	if s.generalizeExecs > 0 {
		fmt.Fprintf(w, "generalize executions: %d vectors (witness proof reused at %d widths, %d vectors skipped)\n",
			s.generalizeExecs, s.provenWidths, s.provenSkipped)
	}
	if s.lift.Funcs > 0 {
		fmt.Fprintf(w, "wasm lift coverage: %s\n", s.lift.String())
	}
	if s.panics > 0 {
		fmt.Fprintf(w, "panics recovered (windows quarantined): %d\n", s.panics)
	}
	if s.degraded > 0 {
		fmt.Fprintf(w, "degraded sequences (KB proposer, circuit open): %d\n", s.degraded)
	}
	if s.learned > 0 {
		fmt.Fprintf(w, "findings backing learned rules: %d\n", s.learned)
	}
	if len(s.ruleHits) > 0 {
		fmt.Fprintln(w, "rule attribution (verified findings):")
		ids := make([]string, 0, len(s.ruleHits))
		for id := range s.ruleHits {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "  %-28s %d\n", id, s.ruleHits[id])
		}
	}
}
