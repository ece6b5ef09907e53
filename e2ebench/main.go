// Command e2ebench is the repository's end-to-end benchmark. It runs the
// discovery system in-process through the public entry points cmd/lpo and
// cmd/lpod use, on one of four seeded workloads, checks the outputs, and
// prints one JSON result line:
//
//	e2ebench --workload campaign_cpu --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// from a run that interleaves traced and untraced units of work. --selftest
// runs the sensitivity self-test instead (see selftest.go). run.sh builds
// the binary and passes --dir and --spec. README.md describes the workloads
// and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch space for stores and trace files
	plant    plant
}

// plant is a delay added inside one of the benchmark's own wrappers. Only
// the sensitivity self-test sets it.
type plant struct {
	flush time.Duration // added to every store Flush
	llm   time.Duration // added to every provider Complete
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end metrics, tracing off
	layer             map[string]float64 // per-layer metrics (trace runs)
	notes             []string           // human-readable lines for stderr
	// llmCalls and flushCalls count the calls the measured units made to
	// the two wrappers a plant can sit in, so the self-test can tell
	// whether a planted delay was on the workload's path at all.
	llmCalls, flushCalls int64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*result, error){
	"campaign_cpu":      func(o options) (*result, error) { return runCampaigns(o, false) },
	"campaign_provider": func(o options) (*result, error) { return runCampaigns(o, true) },
	"lpod_ingest":       runIngest,
	"lpod_read":         runRead,
}

// spec is the part of BENCHMARK.json the program reads: metric units and
// bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metrics the spec names from the measured set; a
// named metric the workload did not produce is an error.
func buildReport(res *result, want []specMetric, have map[string]float64) (report, error) {
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok {
			return rep, fmt.Errorf("workload did not measure %q", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %q is %v", m.Name, v)
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if rep.Attempted < 1 {
		return rep, fmt.Errorf("no operation was attempted")
	}
	return rep, nil
}

func main() {
	var o options
	var secs float64
	var trace int
	var specPath string
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for stores and traces")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition")
	flag.BoolVar(&selftest, "selftest", false, "run the sensitivity self-test")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1

	sp, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatal(err)
	}
	if selftest {
		if err := runSelftest(o, sp); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("usage: e2ebench --workload <%s> --seed N --seconds S --trace 0|1",
			strings.Join(workloadNames(), "|")))
	}
	res, err := run(o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", o.workload, err))
	}
	want, have := sp.EndToEnd, res.e2e
	if o.trace {
		want, have = sp.PerLayer, res.layer
	}
	rep, err := buildReport(res, want, have)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", o.workload, err))
	}
	w := bufio.NewWriter(os.Stderr)
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s: %s\n", o.workload, n)
	}
	w.Flush()
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runDir makes a fresh directory under o.dir for one run's stores.
func runDir(o options) (string, error) {
	return os.MkdirTemp(o.dir, "run-"+o.workload+"-")
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(o.dir, "trace-"+o.workload+".jsonl")
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
