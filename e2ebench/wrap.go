package main

// The benchmark measures every layer from outside, through seams the
// program already accepts: an engine.Source wrapper (extract), an
// llm.Client wrapper (propose), a store.Backend wrapper (store) and the
// HTTP client (service). Each wrapper always keeps cheap counters; when it
// holds a tracer it also records one span per call.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/store"
)

// span is one timed call at a seam. Times are nanoseconds since the
// tracer's epoch; Trace is the window hash when the seam carries one.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Trace  uint64 `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced units of work run.
type tracer struct {
	epoch time.Time
	next  atomic.Int32
	// root is the parent given to spans whose seam carries no context (the
	// store, and provider calls made from lpod's own goroutines).
	root atomic.Int32
	// windows maps a window's printed IR to its hash, so a provider call can
	// be tagged with the window its prompt carries.
	windows sync.Map

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int32 { return t.next.Add(1) }

func (t *tracer) record(id, parent int32, name string, trace uint64, start, end time.Time) {
	if parent == 0 {
		parent = t.root.Load()
	}
	s := span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// addWindow registers a window so provider calls about it carry its hash.
func (t *tracer) addWindow(fn *ir.Func) uint64 {
	h := ir.Hash(fn)
	t.windows.Store(fn.String(), h)
	return h
}

// promptMarker separates the engine's fixed prompt preamble from the
// window's printed IR.
const promptMarker = "\n\ndefine "

func (t *tracer) windowOf(req llm.Request) uint64 {
	if h, ok := t.windows.Load(promptWindow(req)); ok {
		return h.(uint64)
	}
	return 0
}

// promptWindow returns the printed IR of the window a provider request is
// about, or "" when the request carries none.
func promptWindow(req llm.Request) string {
	for _, m := range req.Messages {
		if m.Role != llm.RoleUser {
			continue
		}
		if i := strings.Index(m.Content, promptMarker); i >= 0 {
			return m.Content[i+2:]
		}
		return ""
	}
	return ""
}

// refutedMarker opens the feedback the engine sends back to the provider
// when verify refutes a candidate (alive.CounterExample.Format).
const refutedMarker = "Transformation doesn't verify!"

type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf names a span's layer: the part of its name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of its interval that its children cover, summed over the
// layer's spans. Server-side spans that carry a window hash but no context
// (lpod's store and provider calls) are attached to the client request for
// the same window whose interval contains them. inRequests is the part of
// the total that lies inside client request trees.
func (t *tracer) selfTimes() (self map[string]float64, inRequests float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	requests := map[uint64][]int{} // window hash -> http.request span indexes
	for i, s := range spans {
		if s.Name == "http.request" && s.Trace != 0 {
			requests[s.Trace] = append(requests[s.Trace], i)
		}
	}
	roots := map[int32]bool{}
	for _, s := range spans {
		if layerOf(s.Name) == "bench" {
			roots[s.ID] = true
		}
	}
	children := map[int32][][2]int64{}
	inRequest := make([]bool, len(spans))
	for i, s := range spans {
		parent := s.Parent
		if s.Name == "http.request" {
			inRequest[i] = true
		} else if roots[parent] && s.Trace != 0 {
			for _, j := range requests[s.Trace] {
				if r := spans[j]; r.Start <= s.Start && s.End <= r.End {
					parent = r.ID
					inRequest[i] = true
					break
				}
			}
		}
		children[parent] = append(children[parent], [2]int64{s.Start, s.End})
	}
	self = map[string]float64{}
	for i, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		d := float64(s.End-s.Start-covered) / 1e9
		self[layerOf(s.Name)] += d
		if inRequest[i] {
			inRequests += d
		}
	}
	return self, inRequests
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if s >= e {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// timer accumulates calls and busy time at one seam.
type timer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *timer) add(d time.Duration) {
	t.calls.Add(1)
	t.ns.Add(int64(d))
}

func (t *timer) seconds() float64 { return float64(t.ns.Load()) / 1e9 }

// sleepCtx waits for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// llmClient wraps the provider. It can hold each call for the response's
// virtual latency times scale (campaign_provider), plus a planted delay.
type llmClient struct {
	inner llm.Client
	tr    *tracer
	scale float64 // wall seconds per virtual second
	extra time.Duration

	busy  timer
	mu    sync.Mutex
	usage llm.Usage
	// refuted, when not nil, collects the printed IR of every window for
	// which a follow-up request carried a counterexample: an attempt that
	// reached verify, whatever the window's final outcome.
	refuted map[string]bool
}

func (c *llmClient) Profile() llm.Profile { return c.inner.Profile() }

func (c *llmClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	if err == nil {
		hold := time.Duration(resp.Usage.VirtualSeconds*c.scale*float64(time.Second)) + c.extra
		if hold > 0 {
			if err := sleepCtx(ctx, hold); err != nil {
				return llm.Response{}, err
			}
		}
	}
	end := time.Now()
	c.busy.add(end.Sub(start))
	c.mu.Lock()
	c.usage.Add(resp.Usage)
	if last := req.Messages[len(req.Messages)-1]; c.refuted != nil && last.Role == llm.RoleUser && strings.HasPrefix(last.Content, refutedMarker) {
		c.refuted[promptWindow(req)] = true
	}
	c.mu.Unlock()
	if c.tr != nil {
		c.tr.record(c.tr.newID(), spanFrom(ctx), "llm.complete", c.tr.windowOf(req), start, end)
	}
	return resp, err
}

// wasRefuted reports whether verify refuted an attempt on the window.
func (c *llmClient) wasRefuted(text string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refuted[text]
}

func (c *llmClient) totalUsage() llm.Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usage
}

// source wraps the engine's Source (the extract layer). It remembers when
// each sequence left the source, so a result's latency can be taken when it
// comes out of the engine.
type source struct {
	inner engine.Source
	tr    *tracer
	busy  timer

	mu   sync.Mutex
	sent []time.Time // by result index
}

func (s *source) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	start := time.Now()
	seq, ok, err := s.inner.Next(ctx)
	end := time.Now()
	s.busy.add(end.Sub(start))
	if ok {
		s.mu.Lock()
		s.sent = append(s.sent, end)
		s.mu.Unlock()
	}
	if s.tr != nil {
		var h uint64
		if ok && seq.Fn != nil {
			h = s.tr.addWindow(seq.Fn)
		}
		s.tr.record(s.tr.newID(), spanFrom(ctx), "extract.next", h, start, end)
	}
	return seq, ok, err
}

func (s *source) sentAt(i int) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.sent) {
		return time.Time{}, false
	}
	return s.sent[i], true
}

// backend wraps a store.Backend and times the calls on lpod's request and
// persist paths. Flush can carry a planted delay.
type backend struct {
	store.Backend
	tr         *tracer
	flushDelay time.Duration

	put, flush, has, get timer
}

func findingTrace(kind store.Kind, key string) uint64 {
	if kind != store.KindFinding {
		return 0
	}
	h, err := store.ParseWindowKey(key)
	if err != nil {
		return 0
	}
	return h
}

func (b *backend) span(name string, trace uint64, start, end time.Time) {
	if b.tr != nil {
		b.tr.record(b.tr.newID(), 0, name, trace, start, end)
	}
}

func (b *backend) Put(kind store.Kind, key string, val []byte) (bool, error) {
	start := time.Now()
	added, err := b.Backend.Put(kind, key, val)
	end := time.Now()
	b.put.add(end.Sub(start))
	b.span("store.put", findingTrace(kind, key), start, end)
	return added, err
}

func (b *backend) Get(kind store.Kind, key string) ([]byte, bool) {
	start := time.Now()
	val, ok := b.Backend.Get(kind, key)
	end := time.Now()
	b.get.add(end.Sub(start))
	b.span("store.get", findingTrace(kind, key), start, end)
	return val, ok
}

func (b *backend) Has(kind store.Kind, key string) bool {
	start := time.Now()
	ok := b.Backend.Has(kind, key)
	end := time.Now()
	b.has.add(end.Sub(start))
	b.span("store.has", findingTrace(kind, key), start, end)
	return ok
}

func (b *backend) Flush() error {
	start := time.Now()
	if b.flushDelay > 0 {
		time.Sleep(b.flushDelay)
	}
	err := b.Backend.Flush()
	end := time.Now()
	b.flush.add(end.Sub(start))
	b.span("store.flush", 0, start, end)
	return err
}
