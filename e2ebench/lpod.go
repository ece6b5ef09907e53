package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/llm"
	"repro/internal/service"
	"repro/internal/store"
)

// The lpod workloads drive a service.New daemon over a 4-shard store with
// group commit on (as lpod -shards 4 -rounds 4 runs in the CI smoke),
// behind an httptest server, from closed-loop clients: each client sends
// its next request when the previous reply has been read.
const (
	lpodClients = 2    // client goroutines and connections (nproc on the reference box)
	lpodWindows = 1200 // distinct windows ingested per pass
	shards      = 4
	readPassOps = 10000 // requests per lpod_read pass
	readWarmups = 1     // unmeasured lpod_read passes before the measured ones
	lpodRounds  = 4
	// readZipfTheta is the skew of the window choice in lpod_read: the
	// zipfian constant YCSB uses by default for its request distribution
	// (workloads A-C), so the k-th most requested window gets a share
	// proportional to 1/k^0.99.
	readZipfTheta = 0.99
)

// daemon is one lpod instance: store, service and HTTP server.
type daemon struct {
	sh    *store.Sharded
	st    *backend
	srv   *service.Server
	hs    *httptest.Server
	ln    *pipeListener
	llm   *llmClient
	open  time.Duration // OpenSharded alone
	setup time.Duration // OpenSharded + service.New + listening
}

// startDaemon opens (or recovers) the store in dir and starts lpod on it.
func startDaemon(dir string, tr *tracer, p plant) (*daemon, error) {
	t0 := time.Now()
	sh, err := store.OpenSharded(dir, shards)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	d := &daemon{sh: sh, open: time.Since(t0)}
	d.st = &backend{Backend: sh, tr: tr, flushDelay: p.flush}
	d.st.StartGroupCommit(store.GroupCommitOptions{})
	d.llm = &llmClient{inner: llm.NewSim(model, 1), tr: tr, extra: p.llm, refuted: map[string]bool{}}
	d.srv, err = service.New(service.Config{
		Store:  d.st,
		Client: d.llm,
		Engine: engine.Config{Rounds: lpodRounds},
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	d.ln = newPipeListener()
	d.hs = httptest.NewUnstartedServer(d.srv.Handler())
	d.hs.Listener.Close()
	d.hs.Listener = d.ln
	d.hs.Start()
	d.setup = time.Since(t0)
	return d, nil
}

func (d *daemon) close() error {
	d.hs.Close()
	return errors.Join(d.srv.Close(), d.sh.Close())
}

// statsReply is the part of GET /v1/stats the benchmark reads.
type statsReply struct {
	Engine struct {
		VerifyExecs   int     `json:"verify_execs"`
		BatchCoverage float64 `json:"batch_coverage"`
	} `json:"engine"`
	Store struct {
		Findings int   `json:"findings"`
		Rules    int   `json:"rules"`
		Bytes    int64 `json:"bytes"`
		PutNew   int64 `json:"put_new"`
		Commits  int64 `json:"commits"`
	} `json:"store"`
}

// pipeListener is the daemon's listener. Each client dial gets one end of
// an in-memory connection (net.Pipe) and the daemon's HTTP server the
// other, so a request runs lpod's HTTP server, handlers, service and store
// but not the kernel's loopback TCP: on a shared VM the cost of the
// latter drifts with the host's load far more than the program's own code
// does (see README.md, Stability).
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial is the client transport's DialContext.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	srv, cl := net.Pipe()
	var err error
	select {
	case l.conns <- srv:
		return cl, nil
	case <-l.done:
		err = net.ErrClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	srv.Close()
	cl.Close()
	return nil, err
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// client is the HTTP side of the benchmark: at most lpodClients
// connections to the daemon.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(d *daemon) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		DialContext:         d.ln.dial,
		MaxIdleConnsPerHost: lpodClients,
		MaxConnsPerHost:     lpodClients,
		DisableCompression:  true,
	}}}
}

type reply struct {
	code     int
	degraded bool
	body     []byte
	latency  time.Duration
}

// do sends one request and reads the whole reply; latency covers exactly
// that. trace is the window the request is about.
func (c *client) do(method, url, body string, trace uint64) (reply, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return reply{}, err
	}
	if c.tr != nil {
		c.tr.record(c.tr.newID(), 0, "http.request", trace, start, end)
	}
	return reply{code: resp.StatusCode, degraded: resp.Header.Get("Lpod-Degraded") != "",
		body: data, latency: end.Sub(start)}, nil
}

func (c *client) getJSON(url string, v any) error {
	r, err := c.do(http.MethodGet, url, "", 0)
	if err != nil {
		return err
	}
	if r.code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, r.code, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// submitStatus decodes a one-window submit reply's status.
func submitStatus(body []byte) (window, status string) {
	var rep struct {
		Windows []struct {
			Window string `json:"window"`
			Status string `json:"status"`
		} `json:"windows"`
	}
	if json.Unmarshal(body, &rep) != nil || len(rep.Windows) != 1 {
		return "", ""
	}
	return rep.Windows[0].Window, rep.Windows[0].Status
}

// closedLoop runs ops 0..n-1 on lpodClients goroutines; each takes the next
// op once its previous one has finished.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lpodClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// replyCounts tallies the service's non-success replies.
type replyCounts struct{ rejected, degraded, pending int }

// pass is one lpod unit of work: a full ingest of the window set into a
// fresh store, or one lpod_read mix on a restarted daemon. A finished pass
// keeps figures only, not its daemon or store: every pass must start from
// the same live heap, or the passes after it would collect garbage less
// often and look faster than the ones before.
type pass struct {
	traced      bool
	setup, open time.Duration
	wall        time.Duration
	p50, p99    float64 // request latency percentiles, ms
	samples     int
	replies     replyCounts
	llm         *llmClient
	put, flush  timerSum // the store wrapper's counters
	has, get    timerSum
	stats       statsReply

	mu       sync.Mutex
	failures []string
}

// keep records the pass's latency percentiles (lat in ms) and the store
// wrapper's counters.
func (p *pass) keep(lat []float64, st *backend) {
	p.p50, p.p99, p.samples = quantile(lat, 0.5), quantile(lat, 0.99), len(lat)
	p.put.add(&st.put)
	p.flush.add(&st.flush)
	p.has.add(&st.has)
	p.get.add(&st.get)
}

// countReply tallies a reply the service refused (429), answered degraded,
// or left pending.
func (p *pass) countReply(r reply, status string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case r.code == http.StatusTooManyRequests:
		p.replies.rejected++
	case r.degraded:
		p.replies.degraded++
	case status == "pending":
		p.replies.pending++
	}
}

// failf records a failed check; closed-loop clients call it concurrently.
func (p *pass) failf(format string, args ...any) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// ingestPass starts lpod on an empty store in dir, POSTs every window once
// with ?wait=1 (submit until durable), then checks that every window's
// finding is retrievable. It returns the findings' bytes by window key.
func ingestPass(dir string, wins []window, tr *tracer, p plant) (*pass, map[string][]byte, error) {
	var rootID int32
	if tr != nil {
		rootID = tr.newID()
		tr.root.Store(rootID)
	}
	t0 := time.Now()
	d, err := startDaemon(dir, tr, p)
	if err != nil {
		return nil, nil, err
	}
	ps := &pass{traced: tr != nil, setup: d.setup, open: d.open, llm: d.llm}
	c := newClient(d)
	c.tr = tr
	lat := make([]float64, len(wins))
	replies := make([]reply, len(wins))
	errs := make([]error, len(wins))
	start := time.Now()
	closedLoop(len(wins), func(i int) {
		replies[i], errs[i] = c.do(http.MethodPost, d.hs.URL+"/v1/windows?wait=1", wins[i].text, wins[i].hash)
		lat[i] = ms(replies[i].latency)
	})
	ps.wall = time.Since(start)
	end := time.Now()

	// Output checks, outside the timed region.
	c.tr = nil
	for i, r := range replies {
		if errs[i] != nil {
			ps.failf("window %s: %v", wins[i].key, errs[i])
			continue
		}
		key, status := submitStatus(r.body)
		ps.countReply(r, status)
		if r.code != http.StatusOK || r.degraded || status != "queued" || key != wins[i].key {
			ps.failf("window %s: submit answered %d %q (window %q)", wins[i].key, r.code, status, key)
		}
	}
	bodies := map[string][]byte{}
	for _, w := range wins {
		r, err := c.do(http.MethodGet, d.hs.URL+"/v1/findings/"+w.key, "", 0)
		if err != nil || r.code != http.StatusOK {
			ps.failf("finding %s not retrievable: %v %d", w.key, err, r.code)
			continue
		}
		f, err := store.DecodeFinding(r.body)
		if err != nil || f.Window != w.key {
			ps.failf("finding %s: bad record: %v", w.key, err)
			continue
		}
		bodies[w.key] = r.body
	}
	if err := c.getJSON(d.hs.URL+"/v1/stats", &ps.stats); err != nil {
		ps.failf("stats: %v", err)
	}
	c.hc.CloseIdleConnections()
	if err := d.close(); err != nil {
		return nil, nil, err
	}
	ps.keep(lat, d.st)
	if tr != nil {
		tr.record(rootID, -1, "bench.pass", 0, t0, end)
	}
	return ps, bodies, nil
}

// outcomes tallies the findings' outcomes into an input mix. A window
// reached verify when it was found, ended refuted, or had an attempt
// refuted on the way (seen by the provider wrapper cl).
func outcomes(wins []window, bodies map[string][]byte, cl *llmClient) (*inputMix, error) {
	mix := newInputMix()
	for _, w := range wins {
		f, err := store.DecodeFinding(bodies[w.key])
		if err != nil {
			return nil, err
		}
		mix.add(w.fn, f.Outcome, f.Outcome == "refuted" || cl.wasRefuted(w.text))
	}
	return mix, nil
}

// lpodRun is what both lpod workloads start from: the window set, a
// scratch directory, and an untimed reference ingest of the set into
// <base>/store. The reference ingest also warms the process up, and its
// retrieved findings are the bytes every later pass must reproduce.
type lpodRun struct {
	wins []window
	base string
	ref  map[string][]byte
	mix  *inputMix
	res  *result
	tr   *tracer
}

func startLpodRun(o options) (*lpodRun, error) {
	wins, fromCorpus, err := windowSet(o.seed, lpodWindows)
	if err != nil {
		return nil, err
	}
	base, err := runDir(o)
	if err != nil {
		return nil, err
	}
	ing, ref, err := ingestPass(base+"/store", wins, nil, plant{})
	if err != nil {
		os.RemoveAll(base)
		return nil, err
	}
	if len(ref) != len(wins) {
		os.RemoveAll(base)
		return nil, fmt.Errorf("reference ingest retrieved %d of %d findings", len(ref), len(wins))
	}
	mix, err := outcomes(wins, ref, ing.llm)
	if err != nil {
		os.RemoveAll(base)
		return nil, err
	}
	r := &lpodRun{wins: wins, base: base, ref: ref, mix: mix, res: newResult()}
	r.res.note("window set: %d from the corpus, %d random", fromCorpus, len(wins)-fromCorpus)
	r.res.attempted += 2 * len(wins) // one submit and one retrieval per window
	for _, f := range ing.failures {
		r.res.fail("reference ingest: %s", f)
	}
	// The window set's discoveries and the provider cost of finding them.
	r.res.e2e["findings"] = float64(mix.found)
	r.res.e2e["rules_learned"] = float64(ing.stats.Store.Rules)
	r.res.e2e["cost_usd"] = ing.llm.totalUsage().CostUSD
	if o.trace {
		r.tr = newTracer()
		for _, w := range wins {
			r.tr.addWindow(w.fn)
		}
	}
	return r, nil
}

// runIngest is lpod_ingest: repeated cold ingests of the window set, each
// into a fresh store.
func runIngest(o options) (*result, error) {
	r, err := startLpodRun(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.base)
	res := r.res
	setups, err := setupSamples(func(i int) string { return fmt.Sprintf("%s/setup-%d", r.base, i) })
	if err != nil {
		return nil, err
	}
	var passes []*pass
	var measured time.Duration
	for i := 0; measured < o.seconds || (o.trace && i < 2); i++ {
		var t *tracer
		if o.trace && i%2 == 1 {
			t = r.tr
		}
		dir := fmt.Sprintf("%s/ingest-%d", r.base, i)
		runtime.GC()
		ps, bodies, err := ingestPass(dir, r.wins, t, o.plant)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		measured += ps.wall
		res.attempted += 2 * len(r.wins)
		for _, f := range ps.failures {
			res.fail("pass %d: %s", i, f)
		}
		// Every pass ingests the same windows into an empty store, so every
		// pass must store the reference bytes.
		for _, w := range r.wins {
			if b, ok := bodies[w.key]; ok && !bytes.Equal(b, r.ref[w.key]) {
				res.fail("pass %d: finding %s differs from the reference ingest", i, w.key)
			}
		}
	}
	return lpodMetrics(res, o, passes, setups, r.mix, r.tr, float64(len(r.wins)))
}

// runRead is lpod_read: every pass restarts lpod on the reference store
// and sends a seeded, skewed mix of resubmits (answered from the store as
// "cached") and finding reads.
func runRead(o options) (*result, error) {
	r, err := startLpodRun(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.base)
	res, wins, ref, tr := r.res, r.wins, r.ref, r.tr
	dir := r.base + "/store"

	// The request mix: half resubmits, half reads, windows drawn zipfian.
	// The window set is in seeded random order, so which windows are hot
	// depends on the seed.
	rng := rand.New(rand.NewSource(int64(o.seed)))
	zipf := newZipf(len(wins), readZipfTheta)
	type op struct {
		resubmit bool
		w        *window
	}
	ops := make([]op, readPassOps)
	hits := make([]int, len(wins))
	for i := range ops {
		k := zipf.draw(rng)
		hits[k]++
		ops[i] = op{resubmit: rng.Intn(2) == 0, w: &wins[k]}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(hits)))
	top10, requested := 0, 0
	for i, h := range hits {
		if i < 10 {
			top10 += h
		}
		if h > 0 {
			requested++
		}
	}
	res.note("request mix: hottest window %.3f of requests, 10 hottest %.3f, %d of %d windows requested",
		float64(hits[0])/readPassOps, float64(top10)/readPassOps, requested, len(wins))

	setups, err := setupSamples(func(int) string { return dir })
	if err != nil {
		return nil, err
	}
	// Passes numbered below 0 warm the read path up: they are checked but
	// not measured.
	var passes []*pass
	var measured time.Duration
	for i := -readWarmups; measured < o.seconds || (o.trace && i < 2); i++ {
		runtime.GC()
		var t *tracer
		var rootID int32
		if o.trace && i >= 0 && i%2 == 1 {
			t = tr
			rootID = t.newID()
			t.root.Store(rootID)
		}
		t0 := time.Now()
		d, err := startDaemon(dir, t, o.plant)
		if err != nil {
			return nil, err
		}
		ps := &pass{traced: t != nil, setup: d.setup, open: d.open, llm: d.llm}
		c := newClient(d)
		c.tr = t
		lat := make([]float64, len(ops))
		start := time.Now()
		closedLoop(len(ops), func(i int) {
			op := ops[i]
			var r reply
			var err error
			if op.resubmit {
				r, err = c.do(http.MethodPost, d.hs.URL+"/v1/windows", op.w.text, op.w.hash)
			} else {
				r, err = c.do(http.MethodGet, d.hs.URL+"/v1/findings/"+op.w.key, "", op.w.hash)
			}
			lat[i] = ms(r.latency)
			// The checks run after the latency sample is taken.
			status := ""
			if op.resubmit {
				_, status = submitStatus(r.body)
			}
			ps.countReply(r, status)
			switch {
			case err != nil:
				ps.failf("%s: %v", op.w.key, err)
			case r.code == http.StatusTooManyRequests:
				ps.failf("%s: rejected", op.w.key)
			case r.degraded:
				ps.failf("%s: degraded reply", op.w.key)
			case r.code != http.StatusOK:
				ps.failf("%s: answered %d", op.w.key, r.code)
			case op.resubmit:
				if status != "cached" {
					ps.failf("%s: resubmit answered %q, want cached", op.w.key, status)
				}
			case !bytes.Equal(r.body, ref[op.w.key]):
				ps.failf("%s: finding bytes differ from those fetched after ingest", op.w.key)
			}
		})
		ps.wall = time.Since(start)
		end := time.Now()
		c.tr = nil
		if err := c.getJSON(d.hs.URL+"/v1/stats", &ps.stats); err != nil {
			ps.failf("stats: %v", err)
		}
		c.hc.CloseIdleConnections()
		if err := d.close(); err != nil {
			return nil, err
		}
		ps.keep(lat, d.st)
		if t != nil {
			t.record(rootID, -1, "bench.pass", 0, t0, end)
		}
		res.attempted += len(ops)
		for _, f := range ps.failures {
			res.fail("pass %d: %s", i, f)
		}
		if i < 0 {
			continue
		}
		passes = append(passes, ps)
		measured += ps.wall
	}
	return lpodMetrics(res, o, passes, setups, r.mix, tr, float64(len(ops)))
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^theta, by
// inverting the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// lpodSetups is how many extra daemon start-ups an lpod run times before
// its passes, so that setup_s is a median over many samples.
const lpodSetups = 20

// setupSamples starts lpod on dirFor(i) and stops it again lpodSetups
// times, and returns each start-up time.
func setupSamples(dirFor func(i int) string) ([]float64, error) {
	var out []float64
	for i := 0; i < lpodSetups; i++ {
		runtime.GC()
		d, err := startDaemon(dirFor(i), nil, plant{})
		if err != nil {
			return nil, err
		}
		out = append(out, seconds(d.setup))
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lpodMetrics fills the timing end-to-end metrics from the untraced passes
// and, in a traced run, the per-layer metrics from the traced ones (means
// per pass). The caller sets findings, rules_learned and cost_usd. perPass
// is the number of requests in one pass.
func lpodMetrics(res *result, o options, passes []*pass, setups []float64, mix *inputMix, tr *tracer, perPass float64) (*result, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var untraced, traced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if len(untraced) == 0 || (o.trace && len(traced) == 0) {
		return nil, fmt.Errorf("run too short: no pass completed")
	}
	// Throughput and latency percentiles are taken per pass (every pass has
	// at least 1000 requests, so p99 has at least 10 samples beyond it) and
	// reported as the median over passes: a burst of host interference that
	// lands in a few passes does not move the run's figure.
	var walls, p50s, p99s []float64
	samples := 0
	for _, p := range passes {
		res.llmCalls += p.llm.busy.calls.Load()
		res.flushCalls += int64(p.flush.calls)
	}
	for _, p := range untraced {
		setups = append(setups, seconds(p.setup))
		walls = append(walls, seconds(p.wall))
		p50s = append(p50s, p.p50)
		p99s = append(p99s, p.p99)
		samples += p.samples
	}
	untracedWPS := perPass / median(walls)
	res.e2e["setup_s"] = median(setups)
	res.e2e["windows_per_s"] = untracedWPS
	res.e2e["campaign_s"] = median(walls)
	res.e2e["latency_p50_ms"] = median(p50s)
	res.e2e["latency_p99_ms"] = median(p99s)
	res.e2e["peak_rss_mb"] = rss
	res.note("%d passes (%d traced), %d latency samples", len(passes), len(traced), samples)
	mix.report(res)
	if !o.trace {
		return res, nil
	}

	n := float64(len(traced))
	L := res.layer
	var llmCalls, llmBusy, llmVirtual, execs, batchCov float64
	var put, flush, has, get timerSum
	var open, putNew, commits, bytesPerFinding, wall float64
	var tracedWalls []float64
	var rc replyCounts
	for _, p := range traced {
		llmCalls += float64(p.llm.busy.calls.Load())
		llmBusy += p.llm.busy.seconds()
		llmVirtual += p.llm.totalUsage().VirtualSeconds
		execs += float64(p.stats.Engine.VerifyExecs)
		batchCov += p.stats.Engine.BatchCoverage
		put.sum(p.put)
		flush.sum(p.flush)
		has.sum(p.has)
		get.sum(p.get)
		open += seconds(p.open)
		putNew += float64(p.stats.Store.PutNew)
		commits += float64(p.stats.Store.Commits)
		bytesPerFinding += ratio(float64(p.stats.Store.Bytes), float64(p.stats.Store.Findings))
		wall += seconds(p.wall)
		tracedWalls = append(tracedWalls, seconds(p.wall))
		rc.rejected += p.replies.rejected
		rc.degraded += p.replies.degraded
		rc.pending += p.replies.pending
	}
	// lpod takes windows as given (no extract layer), and the engine's
	// stage timings are not on its public surface: GET /v1/stats carries no
	// stage seconds, so those metrics are measured on the campaigns only.
	for _, name := range []string{"extract.busy_s", "extract.kept_ratio", "engine.run_s",
		"engine.preprocess_s", "engine.filter_s", "engine.verify_s", "engine.generalize_s",
		"engine.preprocess_calls", "engine.filter_calls", "engine.verify_calls", "engine.generalize_calls",
		"engine.verify_cache_hit_ratio"} {
		L[name] = 0
	}
	L["llm.calls"] = llmCalls / n
	L["llm.busy_s"] = llmBusy / n
	L["llm.virtual_s"] = llmVirtual / n
	L["llm.useful_ratio"] = ratio(float64(mix.found)*n, llmCalls)
	L["alive.vector_execs"] = execs / n
	L["alive.batch_coverage"] = batchCov / n
	L["store.put_s"], L["store.put_calls"] = put.s/n, put.calls/n
	L["store.flush_s"], L["store.flush_calls"] = flush.s/n, flush.calls/n
	L["store.has_s"] = has.s / n
	L["store.get_s"] = get.s / n
	L["store.open_s"] = open / n
	L["store.records_per_commit"] = ratio(putNew, commits)
	L["store.bytes_per_finding"] = bytesPerFinding / n
	L["service.rejected"] = float64(rc.rejected) / n
	L["service.degraded"] = float64(rc.degraded) / n
	L["service.pending"] = float64(rc.pending) / n
	inRequests := selfTimes(res, tr, n)
	tracedWPS := perPass / median(tracedWalls)
	L["trace.overhead_windows_per_s"] = tracedWPS - untracedWPS
	// In a closed loop every client always has a request in flight, so the
	// self times inside request trees must add up to wall x clients.
	acc := ratio(inRequests, wall/n*lpodClients)
	L["trace.accounted_ratio"] = acc
	if acc < lpodAccountedBounds[0] || acc > lpodAccountedBounds[1] {
		res.fail("request-tree self time is %.3f of pass wall x clients, outside [%.2f, %.2f]",
			acc, lpodAccountedBounds[0], lpodAccountedBounds[1])
	}
	res.note("trace: %d spans; request trees account for %.3f of pass wall x clients; overhead %.1f windows/s",
		tr.count(), acc, tracedWPS-untracedWPS)
	return res, tr.write(tracePath(o))
}

// lpodAccountedBounds is the range the self time inside client request
// trees must fall in, as a share of pass wall time x clients. The gap below
// 1 is client-side time between requests.
var lpodAccountedBounds = [2]float64{0.8, 1.02}

type timerSum struct{ s, calls float64 }

func (t *timerSum) add(x *timer) {
	t.s += x.seconds()
	t.calls += float64(x.calls.Load())
}

func (t *timerSum) sum(x timerSum) {
	t.s += x.s
	t.calls += x.calls
}
