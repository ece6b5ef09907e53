package main

import (
	"fmt"
	"math"
	"time"
)

// sensitivity is one self-test case: a delay planted in one of the
// benchmark's wrappers, the workload and end-to-end metric it is run
// against, and whether that metric must move beyond its bound or stay
// within it.
type sensitivity struct {
	workload string
	metric   string
	plant    plant
	moves    bool
}

// sensitivityCases prove the layer-to-metric mapping: the store's flush
// barrier shows in lpod_ingest tail latency and not in campaigns, which
// never touch the store; the provider shows in campaign_provider wall time
// and not in lpod_read, which never calls it. The planted delays that must
// move a metric are several times that metric's own run-to-run spread:
// lpod_ingest's p99 is 15-35 ms, and every ?wait=1 submit waits for at
// least one Flush.
var sensitivityCases = []sensitivity{
	{"lpod_ingest", "latency_p99_ms", plant{flush: 50 * time.Millisecond}, true},
	{"campaign_cpu", "campaign_s", plant{flush: 50 * time.Millisecond}, false},
	{"campaign_provider", "campaign_s", plant{llm: 5 * time.Millisecond}, true},
	{"lpod_read", "latency_p50_ms", plant{llm: 5 * time.Millisecond}, false},
}

// plantedCalls is how many calls the planted run made to the wrapper that
// carries the case's delay.
func (tc sensitivity) plantedCalls(r *result) int64 {
	if tc.plant.flush > 0 {
		return r.flushCalls
	}
	return r.llmCalls
}

// runSelftest runs every sensitivity case as a same-seed pair of runs,
// without and with the planted delay. A case fails if a metric that must
// move changes by no more than its bound, or one that must stay changes
// (either way) by more. It also fails if the planted wrapper was never
// called where the delay must move the metric, or was called at all where
// it must not: a delay off the workload's path cannot move it, so a case
// that stays for that reason proves nothing about noise.
func runSelftest(o options, sp *spec) error {
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	failed := 0
	for _, tc := range sensitivityCases {
		bound, ok := bounds[tc.metric]
		if !ok {
			return fmt.Errorf("self-test metric %q is not in the benchmark definition", tc.metric)
		}
		run := o
		run.workload, run.trace = tc.workload, false
		run.plant = plant{}
		base, err := workloads[tc.workload](run)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.workload, err)
		}
		run.plant = tc.plant
		planted, err := workloads[tc.workload](run)
		if err != nil {
			return fmt.Errorf("%s planted: %w", tc.workload, err)
		}
		b, p := base.e2e[tc.metric], planted.e2e[tc.metric]
		change := (p - b) / b
		calls := tc.plantedCalls(planted)
		verdict := "ok"
		if (math.Abs(change) > bound) != tc.moves || (calls > 0) != tc.moves || base.failed+planted.failed > 0 {
			verdict = "FAIL"
			failed++
		}
		want := "stay within"
		if tc.moves {
			want = "move beyond"
		}
		fmt.Printf("%-4s %-17s %-14s flush +%v, llm +%v: %.4g -> %.4g (%+.1f%%; must %s %.0f%%); planted wrapper called %d times\n",
			verdict, tc.workload, tc.metric, tc.plant.flush, tc.plant.llm, b, p, 100*change, want, 100*bound, calls)
	}
	if failed > 0 {
		return fmt.Errorf("%d sensitivity case(s) failed", failed)
	}
	fmt.Println("sensitivity self-test passed")
	return nil
}
