package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
)

// model is the provider profile both cmd/lpo and cmd/lpod default to.
const model = "Gemini2.0T"

// providerScale is how long campaign_provider holds each provider call:
// 0.5 ms of wall time per virtual second of the response's modelled
// latency. A campaign then waits about 1 s on the provider against about
// 0.2 s of local CPU, and one cycle of corpusSeeds campaigns takes about
// as long as one run measures.
const providerScale = 0.0005

// corpusSeeds is how many distinct corpus seeds a campaign run cycles
// through. A run runs whole cycles, one campaign per seed each, until its
// time is up, so every figure it reports covers the same seeds in the same
// proportions however fast the campaigns are. Every repeat of a seed must
// reproduce the first one's results exactly.
const corpusSeeds = 16

// accountedBounds is the range the worker-side layer time of a traced
// campaign must fall in, as a share of engine.run wall time x workers.
// Below it, worker time went somewhere the layers do not see; above it, a
// layer is double-counted.
var accountedBounds = [2]float64{0.6, 1.1}

// campaign is one cold `lpo -corpus -learn -seed N` campaign.
type campaign struct {
	seed   uint64
	tr     *tracer // nil for an untraced campaign
	rootID int32
	eng    *engine.Engine
	ex     *extract.Extractor
	llm    *llmClient
	src    *source

	t0         time.Time
	setup, run time.Duration
	// firstWindow is the campaign's set-up time as its user sees it: from
	// building the provider, extractor, pool and engine until the source
	// hands the engine its first window (corpus generation included).
	firstWindow time.Duration
	workers     int
	windows     int
	results     []engine.Result // dropped once checked
	latencies   []float64       // ms from leaving the source to leaving the engine
	stats       *engine.Stats
	extractor   extract.Stats
	learned     int
}

// newCampaign builds a fresh provider, extractor, counterexample pool and
// engine, as cmd/lpo does for `-corpus -learn -seed cs`, and times that
// set-up.
func newCampaign(cs uint64, scale float64, extra time.Duration, tr *tracer) *campaign {
	var rootID int32
	if tr != nil {
		rootID = tr.newID()
	}
	t0 := time.Now()
	cl := &llmClient{inner: llm.NewSim(model, cs), tr: tr, scale: scale, extra: extra}
	ex := extract.New(extract.Options{})
	eng := engine.New(cl, engine.Config{
		Rounds: 4,
		Learn:  true,
		Verify: alive.Options{Samples: 1024, Seed: cs, Pool: alive.NewCEPool()},
	})
	src := &source{inner: engine.Corpus(corpus.Options{Seed: cs}, ex), tr: tr}
	setup := time.Since(t0)
	return &campaign{seed: cs, t0: t0, setup: setup, rootID: rootID,
		tr: tr, eng: eng, ex: ex, llm: cl, src: src}
}

// execute streams the corpus through the engine and collects the results.
func (c *campaign) execute() {
	ctx := context.Background()
	var runID int32
	if c.tr != nil {
		c.tr.root.Store(c.rootID)
		runID = c.tr.newID()
		ctx = withSpan(ctx, runID)
	}
	start := time.Now()
	ch, stats := c.eng.Run(ctx, c.src)
	for r := range ch {
		now := time.Now()
		if sent, ok := c.src.sentAt(r.Index); ok {
			c.latencies = append(c.latencies, ms(now.Sub(sent)))
		}
		c.results = append(c.results, r)
	}
	end := time.Now()
	c.run = end.Sub(start)
	if first, ok := c.src.sentAt(0); ok {
		c.firstWindow = first.Sub(c.t0)
	}
	c.windows = len(c.results)
	c.stats = stats
	c.extractor = c.ex.Stats()
	c.learned = len(c.eng.Learned())
	c.workers = c.eng.Config().Workers
	// Keep figures only, as for lpod passes: a finished campaign's engine,
	// pool and corpus must not stay live and slow down collection for the
	// campaigns after it.
	c.eng, c.ex, c.src.inner, c.src.sent = nil, nil, nil, nil
	if c.tr != nil {
		c.tr.record(runID, c.rootID, "engine.run", 0, start, end)
		c.tr.record(c.rootID, -1, "bench.campaign", 0, c.t0, end)
	}
}

// digest hashes every result's (window, outcome, candidate) in order.
func (c *campaign) digest() uint64 {
	h := fnv.New64a()
	for _, r := range c.results {
		var src uint64
		if r.Src != nil {
			src = ir.Hash(r.Src)
		}
		cand := ""
		if r.Cand != nil {
			cand = r.Cand.String()
		}
		fmt.Fprintf(h, "%d|%016x|%s|%s\n", r.Index, src, r.Outcome, cand)
	}
	return h.Sum64()
}

func (c *campaign) found() int { return c.stats.Outcome(engine.Found) }

// reachedVerify reports whether any of r's attempts got a verdict from
// verify: verified, or refuted with the counterexample as feedback. An
// attempt that failed to parse carries feedback but was never parsed; one
// the filter dropped was parsed but carries none.
func reachedVerify(r engine.Result) bool {
	for _, a := range r.Attempts {
		if a.Verified || (a.Parsed && a.Feedback != "") {
			return true
		}
	}
	return false
}

// runCampaigns runs campaign_cpu (provider costs ~0 wall time) or
// campaign_provider (each provider call held for its virtual latency).
func runCampaigns(o options, provider bool) (*result, error) {
	k, scale := corpusSeeds, 0.0
	if provider {
		scale = providerScale
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := newResult()
	ck := &campaignChecks{res: res, first: map[uint64]uint64{}, checked: map[[2]uint64]bool{}, mix: newInputMix()}
	setups, err := firstWindowSamples(o.seed, scale)
	if err != nil {
		return nil, err
	}

	// A traced run alternates untraced and traced campaigns on the same
	// corpus seed, so the overhead and the digest comparison are same-seed.
	// The run measures whole cycles until the campaigns' own time (set-up
	// and run) adds up to o.seconds; the checks between campaigns are not
	// counted.
	cycle := k
	if o.trace {
		cycle = 2 * k
	}
	var untraced, traced []*campaign
	var measured time.Duration
	for i := 0; measured < o.seconds || i%cycle != 0; i++ {
		idx, isTraced := i%k, false
		if o.trace {
			idx, isTraced = (i/2)%k, i%2 == 1
		}
		var t *tracer
		if isTraced {
			t = tr
		}
		// Every campaign starts from a collected heap, so the garbage of
		// the one before does not land in its time.
		runtime.GC()
		c := newCampaign(corpusSeed(o.seed, idx), scale, o.plant.llm, t)
		c.execute()
		measured += c.setup + c.run
		res.llmCalls += c.llm.busy.calls.Load()
		ck.check(c)
		if isTraced {
			traced = append(traced, c)
		} else {
			untraced = append(untraced, c)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// End-to-end metrics, from the untraced campaigns.
	var runs, lat []float64
	var windows int
	var runTotal time.Duration
	for _, c := range untraced {
		setups = append(setups, seconds(c.firstWindow))
		runs = append(runs, seconds(c.run))
		lat = append(lat, c.latencies...)
		windows += c.windows
		runTotal += c.run
	}
	nd := float64(len(ck.first))
	untracedWPS := float64(windows) / runTotal.Seconds()
	res.e2e["setup_s"] = median(setups)
	res.e2e["windows_per_s"] = untracedWPS
	res.e2e["campaign_s"] = median(runs)
	res.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	res.e2e["latency_p99_ms"] = quantile(lat, 0.99)
	res.e2e["findings"] = ck.found / nd
	res.e2e["rules_learned"] = ck.learned / nd
	res.e2e["cost_usd"] = ck.cost / nd
	res.e2e["peak_rss_mb"] = rss
	res.note("%d campaigns over %d corpus seeds (%d traced), %d windows, %d latency samples, %d set-up samples",
		len(untraced)+len(traced), len(ck.first), len(traced), windows, len(lat), len(setups))
	ck.mix.report(res)
	if o.trace {
		if err := campaignLayers(res, traced, untracedWPS, tr, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setupProbes is how many extra set-ups a campaign run times before its
// campaigns, so that setup_s is a median over many samples even when few
// campaigns fit in a run.
const setupProbes = 20

// firstWindowSamples builds setupProbes campaigns and times each one until
// its source yields the first window, then stops the source.
func firstWindowSamples(seed uint64, scale float64) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		runtime.GC()
		c := newCampaign(corpusSeed(seed, i%corpusSeeds), scale, 0, nil)
		ctx, cancel := context.WithCancel(context.Background())
		_, ok, err := c.src.Next(ctx)
		cancel()
		if err != nil || !ok {
			return nil, fmt.Errorf("set-up probe: no first window (%v)", err)
		}
		first, _ := c.src.sentAt(0)
		out = append(out, seconds(first.Sub(c.t0)))
		// Wait for the cancelled producer to exit before the next probe.
		for {
			if _, ok, err := c.src.inner.Next(context.Background()); !ok || err != nil {
				break
			}
		}
	}
	return out, nil
}

// campaignChecks checks each campaign's outputs as it ends, outside the
// timed region, and keeps the per-corpus-seed quality figures.
type campaignChecks struct {
	res                  *result
	first                map[uint64]uint64  // corpus seed -> digest of its first campaign
	checked              map[[2]uint64]bool // Found pairs already re-verified
	mix                  *inputMix
	found, learned, cost float64 // summed over distinct corpus seeds
}

// check verifies c and then drops its results.
func (ck *campaignChecks) check(c *campaign) {
	res := ck.res
	res.attempted += len(c.results)
	for _, r := range c.results {
		switch r.Outcome {
		case engine.Errored, engine.Panicked, engine.Canceled:
			res.fail("corpus seed %d window %d: %s: %v", c.seed, r.Index, r.Outcome, r.Err)
		}
	}
	d := c.digest()
	if want, seen := ck.first[c.seed]; seen {
		res.attempted++
		if d != want {
			res.fail("corpus seed %d: results differ between repeats (this one traced: %v)", c.seed, c.tr != nil)
		}
		c.results = nil
		return
	}
	ck.first[c.seed] = d
	ck.found += float64(c.found())
	ck.learned += float64(c.learned)
	ck.cost += c.llm.totalUsage().CostUSD
	for _, r := range c.results {
		if r.Src != nil {
			ck.mix.add(r.Src, string(r.Outcome), reachedVerify(r))
		}
		// Re-check every Found pair with the reference verifier, which
		// shares no execution path with the engine's batched Checker.
		if r.Outcome != engine.Found || r.Cand == nil {
			continue
		}
		key := [2]uint64{ir.Hash(r.Src), ir.Hash(r.Cand)}
		if ck.checked[key] {
			continue
		}
		ck.checked[key] = true
		res.attempted++
		v := alive.ReferenceVerify(r.Src, r.Cand, alive.Options{Samples: 1024, Seed: c.seed})
		if v.Verdict != alive.Correct {
			res.fail("corpus seed %d window %d: reference verifier rejects the found candidate: %s",
				c.seed, r.Index, v.Err)
		}
	}
	c.results = nil
}

// campaignLayers fills the per-layer metrics from the traced campaigns,
// as means per campaign.
func campaignLayers(res *result, traced []*campaign, untracedWPS float64, tr *tracer, o options) error {
	n := float64(len(traced))
	var extractBusy, llmCalls, llmBusy, llmVirtual, runS, found float64
	var kept, seqs float64
	var cacheHits, execs, batched float64
	var workerBusy, capacity float64
	var windows int
	stage := map[string][2]float64{} // seconds, calls
	for _, c := range traced {
		extractBusy += c.src.busy.seconds()
		kept += float64(c.extractor.Kept)
		seqs += float64(c.extractor.Sequences)
		calls := float64(c.llm.busy.calls.Load())
		llmCalls += calls
		llmBusy += c.llm.busy.seconds()
		llmVirtual += c.llm.totalUsage().VirtualSeconds
		runS += seconds(c.run)
		found += float64(c.found())
		windows += c.windows
		cacheHits += float64(c.stats.VerifyCacheHits())
		execs += float64(c.stats.VerifyExecs())
		b, _ := c.stats.BatchExecs()
		batched += float64(b)
		busy := c.llm.busy.seconds()
		for _, name := range []string{engine.StagePreprocess, engine.StageFilter, engine.StageVerify, engine.StageGeneralize} {
			m := c.stats.Stage(name)
			s := stage[name]
			stage[name] = [2]float64{s[0] + m.Seconds, s[1] + float64(m.Invocations)}
			busy += m.Seconds
		}
		workerBusy += busy
		capacity += seconds(c.run) * float64(c.workers)
	}
	L := res.layer
	L["extract.busy_s"] = extractBusy / n
	L["extract.kept_ratio"] = ratio(kept, seqs)
	L["llm.calls"] = llmCalls / n
	L["llm.busy_s"] = llmBusy / n
	L["llm.virtual_s"] = llmVirtual / n
	L["llm.useful_ratio"] = ratio(found, llmCalls)
	L["engine.run_s"] = runS / n
	for _, name := range []string{engine.StagePreprocess, engine.StageFilter, engine.StageVerify, engine.StageGeneralize} {
		L["engine."+name+"_s"] = stage[name][0] / n
		L["engine."+name+"_calls"] = stage[name][1] / n
	}
	L["engine.verify_cache_hit_ratio"] = ratio(cacheHits, stage[engine.StageVerify][1])
	L["alive.vector_execs"] = execs / n
	L["alive.batch_coverage"] = ratio(batched, execs)
	for _, name := range []string{"store.put_s", "store.put_calls", "store.flush_s", "store.flush_calls",
		"store.has_s", "store.get_s", "store.open_s", "store.records_per_commit", "store.bytes_per_finding",
		"service.rejected", "service.degraded", "service.pending"} {
		L[name] = 0 // campaigns bypass the store and the service
	}
	selfTimes(res, tr, n)
	tracedWPS := float64(windows) / runS
	L["trace.overhead_windows_per_s"] = tracedWPS - untracedWPS
	acc := ratio(workerBusy, capacity)
	L["trace.accounted_ratio"] = acc
	if acc < accountedBounds[0] || acc > accountedBounds[1] {
		res.fail("worker-side layer time is %.3f of engine.run wall x workers, outside [%.2f, %.2f]",
			acc, accountedBounds[0], accountedBounds[1])
	}
	res.note("trace: %d spans; worker-side layers account for %.3f of run wall x workers; overhead %.1f windows/s",
		tr.count(), acc, tracedWPS-untracedWPS)
	return tr.write(tracePath(o))
}

// selfLayers are the layers self time is reported for.
var selfLayers = []string{"bench", "extract", "llm", "engine", "store", "http"}

// selfTimes reports each layer's self time per unit of work.
// It returns the self time inside client request trees, per unit.
func selfTimes(res *result, tr *tracer, units float64) float64 {
	self, inRequests := tr.selfTimes()
	for _, l := range selfLayers {
		res.layer["self."+l+"_s"] = self[l] / units
	}
	res.layer["trace.spans"] = float64(tr.count()) / units
	return inRequests / units
}
