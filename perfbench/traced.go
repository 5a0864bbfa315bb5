package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/bpel"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run. The same choreod is embedded in-process behind a
// benchmark-owned handler wrapper on a real TCP listener, and the same
// seeded schedule is replayed three ways: over HTTP untraced (the base
// of trace.overhead_ratio and the Go runtime figures), over HTTP with
// spans, and through direct store calls on a journaled and on an
// in-memory store. Spans are recorded from the benchmark's own files,
// around the calls into each layer, kept in memory and written out at
// the end.

const spanHeader = "X-Perfbench-Span"

// span is one traced request: the client's view of it and the
// handler's.
type span struct {
	Phase     string  `json:"phase"`
	Class     string  `json:"class"`
	ClientMs  float64 `json:"client_ms"`
	HandlerMs float64 `json:"handler_ms"`
	ReqBytes  int64   `json:"req_bytes"`
	RespBytes int64   `json:"resp_bytes"`
	served    bool
}

type tracer struct {
	mu    sync.Mutex
	phase string // "window" or "probe"
	spans []span
}

func (t *tracer) setPhase(phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

type spanKey struct{}

func (t *tracer) open(class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Phase: t.phase, Class: class})
	return len(t.spans) - 1
}

func (t *tracer) clientDone(id int, d time.Duration) {
	t.mu.Lock()
	t.spans[id].ClientMs = ms(d)
	t.mu.Unlock()
}

func (t *tracer) served(id int, d time.Duration, req, resp int64) {
	t.mu.Lock()
	s := &t.spans[id]
	s.HandlerMs, s.ReqBytes, s.RespBytes, s.served = ms(d), req, resp, true
	t.mu.Unlock()
}

// wrap is the handler wrapper: it times the server's handler for every
// request that carries a span ID and counts its body bytes both ways
// (a request body the handler does not read counts at its
// Content-Length).
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		t.served(id, time.Since(t0), max(body.n, r.ContentLength), cw.n)
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// spanTransport carries the span ID of the request's context to the
// handler wrapper in a header.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return s.base.RoundTrip(r)
}

func newSpanClient(addr string) *server.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return server.NewClient(addr, &http.Client{Transport: spanTransport{tr}})
}

// tracedAPI records a client span around every call of an httpAPI.
type tracedAPI struct {
	httpAPI
	t *tracer
}

func traceCall[T any](a tracedAPI, ctx context.Context, class string, call func(context.Context) (T, error)) (T, error) {
	id := a.t.open(class)
	t0 := time.Now()
	out, err := call(context.WithValue(ctx, spanKey{}, id))
	a.t.clientDone(id, time.Since(t0))
	return out, err
}

func (a tracedAPI) evolve(ctx context.Context, chor string, ep *episode) (*evolveOut, error) {
	return traceCall(a, ctx, "evolve", func(ctx context.Context) (*evolveOut, error) { return a.httpAPI.evolve(ctx, chor, ep) })
}

func (a tracedAPI) migrate(ctx context.Context, chor, party string, evo *evolveOut) (migrateOut, error) {
	return traceCall(a, ctx, "migrate", func(ctx context.Context) (migrateOut, error) { return a.httpAPI.migrate(ctx, chor, party, evo) })
}

func (a tracedAPI) commit(ctx context.Context, evo *evolveOut) (uint64, error) {
	return traceCall(a, ctx, "commit", func(ctx context.Context) (uint64, error) { return a.httpAPI.commit(ctx, evo) })
}

func (a tracedAPI) check(ctx context.Context, chor string) (checkOut, error) {
	return traceCall(a, ctx, "check", func(ctx context.Context) (checkOut, error) { return a.httpAPI.check(ctx, chor) })
}

func (a tracedAPI) putParty(ctx context.Context, chor string, p *bpel.Process) (uint64, error) {
	return traceCall(a, ctx, "revert", func(ctx context.Context) (uint64, error) { return a.httpAPI.putParty(ctx, chor, p) })
}

func (a tracedAPI) ingest(ctx context.Context, chor string, evs []ingest.Event) error {
	_, err := traceCall(a, ctx, "ingest", func(ctx context.Context) (struct{}, error) {
		return struct{}{}, a.httpAPI.ingest(ctx, chor, evs)
	})
	return err
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU and
// allocated bytes.
func runtimeSample() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

func runTraced(ctx context.Context, cfg config) (*result, []string, error) {
	secs := time.Duration(cfg.seconds) * time.Second
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lines []string
	fail := func(err error) {
		if err != nil && res.Correct {
			fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
			res.Correct = false
		}
	}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v} }

	// ---- over HTTP, in-process ----
	dirA := filepath.Join(cfg.work, "http")
	stA, err := store.Open(store.WithJournal(dirA))
	if err != nil {
		return nil, nil, err
	}
	defer stA.Close()
	tr := &tracer{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: tr.wrap(server.New(stA).Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	addr := "http://" + ln.Addr().String()
	p, err := newPlan(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	if err := p.provision(ctx, httpAPI{newClient(addr)}); err != nil {
		return nil, nil, err
	}
	plain := make([]api, len(p.clients))
	traced := make([]api, len(p.clients))
	for i := range p.clients {
		c := newSpanClient(addr)
		plain[i], traced[i] = httpAPI{c}, tracedAPI{httpAPI{c}, tr}
	}
	_, _, err = window(ctx, plain, p.clients, warmup, nil)
	fail(err)

	// Untraced and traced slices run in the order U T T U, so a drift
	// of the machine or of the store over the run cancels out of
	// trace.overhead_ratio; the two untraced slices are also the early
	// and late halves of the stationarity check.
	var untracedSlices, tracedRecs []*recorder
	var elU, elT time.Duration
	var gcCPU, allCPU, allocBytes float64
	var d statsDelta
	for _, mode := range []string{"untraced", "traced", "traced", "untraced"} {
		if mode == "untraced" {
			g0, c0, a0 := runtimeSample()
			recs, el, err := window(ctx, plain, p.clients, secs/4, nil)
			fail(err)
			g1, c1, a1 := runtimeSample()
			gcCPU, allCPU, allocBytes = gcCPU+g1-g0, allCPU+c1-c0, allocBytes+a1-a0
			untracedSlices = append(untracedSlices, merge(recs...))
			elU += el
			continue
		}
		s0 := stA.Stats()
		tr.setPhase("window")
		recs, el, err := window(ctx, traced, p.clients, secs/4, nil)
		fail(err)
		d.add(s0, stA.Stats())
		tracedRecs = append(tracedRecs, recs...)
		elT += el
	}
	untraced := merge(untracedSlices...)
	_, _, doneU := untraced.totals()
	put("runtime.gc_cpu_fraction", gcCPU/allCPU)
	put("runtime.alloc_bytes_per_op", allocBytes/float64(doneU))
	drift, worst := stationarity(cfg, untracedSlices[0], untracedSlices[1], false)
	lines = append(lines, drift...)
	put("stationarity.max_p50_drift", worst)

	tracedWin := merge(tracedRecs...)
	_, _, doneT := tracedWin.totals()
	put("trace.overhead_ratio", (float64(doneT)/elT.Seconds())/(float64(doneU)/elU.Seconds()))
	tr.setPhase("probe")
	probeA, _, err := p.runProbe(ctx, tracedAPI{httpAPI{newSpanClient(addr)}, tr}, secs/4, nil)
	fail(err)
	all := merge(untraced, tracedWin, probeA)
	res.Attempted, res.Failed, _ = all.totals()
	put("failed_ratio", ratio(res.Failed, res.Attempted))
	fail(requireClean(all, classes))

	put("store.cons_hit_ratio", ratio(int64(d.consHits), int64(d.consHits+d.consMisses)))
	put("store.cons_lookups", float64(d.consHits+d.consMisses))
	put("store.view_hit_ratio", ratio(int64(d.viewHits), int64(d.viewHits+d.viewMisses)))
	put("store.view_lookups", float64(d.viewHits+d.viewMisses))
	put("ingest.rejected_ratio", ratio(int64(d.rejected), int64(d.ingested+d.rejected)))
	put("ingest.online_migrations", float64(d.online))
	lines = append(lines, fmt.Sprintf("# traced slices: %d requests, %d consistency lookups, %d view lookups, %d events ingested, %d rejected, %d online migrations",
		doneT, d.consHits+d.consMisses, d.viewHits+d.viewMisses, d.ingested, d.rejected, d.online))

	// The streamed statuses are read from the live store; then the
	// journal is reopened kill-style, without closing the live store.
	fail(p.acked.verifyStore(ctx, stA))
	walMB := float64(fileSize(filepath.Join(dirA, "wal.log"))) / (1 << 20)
	t0 := time.Now()
	reopened, err := store.Open(store.WithJournal(dirA))
	recoverMs := ms(time.Since(t0))
	if err != nil {
		fail(fmt.Errorf("reopening journal: %w", err))
	} else {
		fail(p.acked.verifyStore(ctx, reopened))
		reopened.Close()
	}
	put("journal.recover_ms_per_mb", recoverMs/walMB)
	lines = append(lines, fmt.Sprintf("# journal recovery: %.2f MB WAL in %.1f ms", walMB, recoverMs))

	// ---- direct store calls: journaled, then in-memory ----
	dirB := filepath.Join(cfg.work, "direct")
	pB, stB, winB, probeB, err := directRun(ctx, cfg, store.WithJournal(dirB))
	if stB != nil {
		defer stB.Close()
	}
	fail(err)
	pC, stC, winC, probeC, err := directRun(ctx, cfg)
	if stC != nil {
		defer stC.Close()
	}
	fail(err)
	if !res.Correct {
		return res, lines, nil
	}

	spans := tr.spans
	for _, class := range classes {
		// Like every per-class figure, spans come from the window when
		// its mix has the class, else from the side probe.
		phase := "probe"
		if c := tracedWin.classes[class]; c != nil && len(c.samples) > 0 {
			phase = "window"
		}
		var handler, transport, req, resp []float64
		for _, s := range spans {
			if s.Class != class || s.Phase != phase || !s.served {
				continue
			}
			handler = append(handler, s.HandlerMs)
			transport = append(transport, s.ClientMs-s.HandlerMs)
			req = append(req, float64(s.ReqBytes))
			resp = append(resp, float64(s.RespBytes))
		}
		callB := pick(winB, probeB, class).durations()
		callC := pick(winC, probeC, class).durations()
		put("server.self_ms."+class, quantile(handler, 0.5)-quantile(callB, 0.5))
		put("client.transport_ms."+class, quantile(transport, 0.5))
		put("server.req_bytes."+class, mean(req))
		put("server.resp_bytes."+class, mean(resp))
		put("store.call_ms."+class, quantile(callB, 0.5))
		if class == "commit" || class == "revert" || class == "ingest" {
			put("journal.overhead_us."+class, 1000*(quantile(callB, 0.5)-quantile(callC, 0.5)))
		}
		lines = append(lines, fmt.Sprintf("# %-8s %6d spans, %6d journaled store calls, %6d in-memory store calls", class, len(handler), len(callB), len(callC)))
	}
	ing := pick(winB, probeB, "ingest")
	events := winB.events
	if events == 0 {
		events = probeB.events
	}
	var ingestMs float64
	for _, d := range ing.durations() {
		ingestMs += d
	}
	put("ingest.us_per_event", 1000*ingestMs/float64(events))

	counted, err := countPass(ctx, cfg, filepath.Join(cfg.work, "count"))
	if err != nil {
		fail(err)
		return res, lines, nil
	}
	for _, class := range classes {
		c, n := counted.sums[class], counted.calls(class)
		put("store.allocs."+class, float64(c.allocs)/float64(n))
		lines = append(lines, fmt.Sprintf("# store.allocs.%s: %d allocations over %d calls", class, c.allocs, n))
	}
	for _, name := range []string{"commit", "revert"} {
		c, n := counted.sums[name], counted.calls(name)
		put("journal.wal_bytes."+name, float64(c.walBytes)/float64(n))
		lines = append(lines, fmt.Sprintf("# journal.wal_bytes.%s: %d bytes over %d calls", name, c.walBytes, n))
	}
	ci := counted.sums["ingest"]
	put("journal.wal_bytes.event", float64(ci.walBytes)/float64(counted.events))
	lines = append(lines, fmt.Sprintf("# journal.wal_bytes.event: %d bytes over %d events in %d batches", ci.walBytes, counted.events, counted.calls("ingest")))

	kern, err := replayKernel(ctx, stB, pB)
	if err != nil {
		fail(err)
		return res, lines, nil
	}
	for name, v := range kern.metrics {
		put(name, v)
	}
	lines = append(lines, kern.lines...)

	sweepMs, perSec, swept, err := sweep(ctx, stC, pC)
	if err != nil {
		fail(err)
		return res, lines, nil
	}
	put("migrate.sweep_ms", sweepMs)
	put("migrate.instances_per_s", perSec)
	put("migrate.population", float64(p.populationSize()))
	lines = append(lines, fmt.Sprintf("# migrate sweep: %d instances over %d choreographies", swept, len(p.corpus)))

	if err := writeSpans(cfg, spans); err != nil {
		return nil, nil, err
	}
	return res, lines, nil
}

// directRun provisions a store opened with opts and replays the
// workload's schedule on it through direct store calls: a short
// warm-up, a quarter of the window with the clients, then the side
// probe for an eighth.
func directRun(ctx context.Context, cfg config, opts ...store.Option) (*plan, *store.Store, *recorder, *recorder, error) {
	st, err := store.Open(opts...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	p, err := newPlan(cfg.workload, cfg.seed)
	if err != nil {
		return nil, st, nil, nil, err
	}
	a := storeAPI{st}
	if err := p.provision(ctx, a); err != nil {
		return nil, st, nil, nil, err
	}
	apis := []api{a, a}
	secs := time.Duration(cfg.seconds) * time.Second
	if _, _, err := window(ctx, apis, p.clients, warmup/2, nil); err != nil {
		return nil, st, nil, nil, err
	}
	recs, _, err := window(ctx, apis, p.clients, secs/4, nil)
	if err != nil {
		return nil, st, nil, nil, err
	}
	probe, _, err := p.runProbe(ctx, a, secs/8, nil)
	if err != nil {
		return nil, st, nil, nil, err
	}
	win := merge(recs...)
	if err := requireClean(merge(win, probe), classes); err != nil {
		return nil, st, nil, nil, fmt.Errorf("direct store calls: %w", err)
	}
	return p, st, win, probe, nil
}

// countWarm and countSteps are how many steps each client takes in the
// counting pass before and while it counts.
const (
	countWarm  = 15
	countSteps = 30
)

// counts are exact quantities the counting pass reads around a call.
type counts struct{ allocs, walBytes int64 }

// metered is the counting pass's sink: a recorder that also reads the
// allocation count and the WAL size around every request and sums the
// deltas per class.
type metered struct {
	*recorder
	read   func() counts
	before counts
	sums   map[string]*counts
}

func (m *metered) begin() time.Time {
	m.before = m.read()
	return m.recorder.begin()
}

// end reads the meter before the recorder appends its sample, so the
// append is not counted as the call's allocation.
func (m *metered) end(class string, t0 time.Time, err error) {
	after := m.read()
	c := m.sums[class]
	if c == nil {
		c = &counts{}
		m.sums[class] = c
	}
	c.allocs += after.allocs - m.before.allocs
	c.walBytes += after.walBytes - m.before.walBytes
	m.recorder.end(class, t0, err)
}

// calls is how many calls of class the pass metered.
func (m *metered) calls(class string) int64 {
	if c := m.classes[class]; c != nil {
		return c.attempted
	}
	return 0
}

// countPass provisions a fresh journaled store in dir and steps every
// client of a fresh plan, probe included, one after the other on one
// goroutine: first countWarm steps so lazily built state exists, then
// countSteps steps reading the allocation count and the WAL size
// around every store call. Nothing in the pass depends on timing, so
// the counts repeat exactly for a seed.
func countPass(ctx context.Context, cfg config, dir string) (*metered, error) {
	st, err := store.Open(store.WithJournal(dir))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	p, err := newPlan(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	a := storeAPI{st}
	if err := p.provision(ctx, a); err != nil {
		return nil, err
	}
	clients := p.clients
	if p.probe != nil {
		clients = append(clients, p.probe)
	}
	wal := filepath.Join(dir, "wal.log")
	var ms runtime.MemStats
	m := &metered{
		recorder: newRecorder(nil),
		read: func() counts {
			runtime.ReadMemStats(&ms)
			return counts{allocs: int64(ms.Mallocs), walBytes: fileSize(wal)}
		},
		sums: map[string]*counts{},
	}
	var rec sink = newRecorder(nil)
	for i := 0; i < countWarm+countSteps; i++ {
		if i == countWarm {
			rec = m
		}
		for _, c := range clients {
			if err := c.step(ctx, a, rec); err != nil {
				return nil, err
			}
		}
	}
	if err := requireClean(m.recorder, classes); err != nil {
		return nil, fmt.Errorf("counting pass: %w", err)
	}
	return m, nil
}

// sweep times store.MigrateAll over each design copy's fixed population:
// a PUT of an unchanged party first publishes a new version, so every
// sweep is a fresh job.
func sweep(ctx context.Context, st *store.Store, p *plan) (medianMs, perSec float64, total int, err error) {
	var times []float64
	var sum time.Duration
	for _, sc := range p.corpus {
		chor := chorID(p.designPrefix, sc)
		if _, err := st.UpdateParty(ctx, chor, sc.Parties[0], nil); err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		job, err := st.MigrateAll(ctx, chor, 0)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		total += job.Snapshot().Total
		sum += d
		times = append(times, ms(d))
	}
	return quantile(times, 0.5), float64(total) / sum.Seconds(), total, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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

// statsDelta sums store counters over the traced slices. Stats walks
// every instance, so it is read only between slices.
type statsDelta struct {
	consHits, consMisses, viewHits, viewMisses uint64
	ingested, rejected, online                 uint64
}

func (d *statsDelta) add(before, after store.Stats) {
	d.consHits += after.ConsistencyHits - before.ConsistencyHits
	d.consMisses += after.ConsistencyMisses - before.ConsistencyMisses
	d.viewHits += after.ViewHits - before.ViewHits
	d.viewMisses += after.ViewMisses - before.ViewMisses
	d.ingested += after.EventsIngested - before.EventsIngested
	d.rejected += after.IngestRejected - before.IngestRejected
	d.online += after.OnlineMigrations - before.OnlineMigrations
}
