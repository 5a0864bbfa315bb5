package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// setupReps is how many times a run starts and provisions a server;
// setup_s is their median, and the last one serves the timed window.
const setupReps = 7

// warmup runs the workload before the timed window so caches, the
// connection pool and the Go heap reach their steady state.
const warmup = time.Second

// serverProc is one choreoctl serve process over a journal directory.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	log  bytes.Buffer
	done chan struct{}
}

// startServer launches choreoctl serve -data dir on a free loopback
// port and returns once /v2/readyz answers 200.
func startServer(bin, dir string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &serverProc{addr: "http://" + addr, dir: dir, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-data", dir)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.done:
			return nil, fmt.Errorf("choreoctl serve exited: %s", s.log.String())
		default:
		}
		resp, err := probe.Get(s.addr + "/v2/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("choreoctl serve at %s not ready after 20s", addr)
}

// kill stops the server the hard way, as a crash would, and waits for
// it to exit.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// newClient returns a typed client with a connection pool of its own,
// holding the one connection a closed-loop caller needs.
func newClient(addr string) *server.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return server.NewClient(addr, &http.Client{Transport: tr})
}

// runUntraced is the end-to-end run: set up a real server setupReps
// times, warm up, time the workload's window and its side probe in
// alternating slices, then kill the server and check the reopened
// journal against everything acked.
func runUntraced(ctx context.Context, cfg config) (*result, []string, error) {
	var setups []float64
	var srv *serverProc
	var p *plan
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.kill()
			srv = nil
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("data%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		var err error
		if p, err = newPlan(cfg.workload, cfg.seed); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.server, dir); err != nil {
			return nil, nil, err
		}
		if err := p.provision(ctx, httpAPI{newClient(srv.addr)}); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ref, err := startReference()
	if err != nil {
		return nil, nil, err
	}
	defer ref.stop()
	apis := make([]api, len(p.clients))
	for i := range apis {
		apis[i] = httpAPI{newClient(srv.addr)}
	}
	res := &result{Correct: true}
	probeAPI := httpAPI{newClient(srv.addr)}
	_, _, oracleErr := window(ctx, apis, p.clients, warmup, ref)
	if oracleErr == nil {
		_, _, oracleErr = p.runProbe(ctx, probeAPI, warmup/2, ref)
	}
	// The window and the side probe run in alternating slices, so the
	// classes the probe times see the same spells of the machine as
	// the window does.
	winLen := time.Duration(cfg.seconds) * time.Second
	var winSlices []*recorder
	probe := newRecorder(nil)
	var elapsed, probeElapsed time.Duration
	for i := 0; i < slices && oracleErr == nil; i++ {
		recs, el, err := window(ctx, apis, p.clients, winLen/slices, ref)
		winSlices = append(winSlices, merge(recs...))
		elapsed += el
		if oracleErr = err; err != nil {
			break
		}
		pr, pel, err := p.runProbe(ctx, probeAPI, probeLength(cfg)/slices, ref)
		probe = merge(probe, pr)
		probeElapsed += pel
		oracleErr = err
	}
	win := merge(winSlices...)
	all := merge(win, probe)
	if oracleErr == nil {
		oracleErr = requireClean(all, e2eClasses)
	}

	// Kill the server and reopen its journal, as recovery after a
	// crash would: every acked write must be there.
	srv.kill()
	if oracleErr == nil {
		oracleErr = reopenAndVerify(ctx, srv.dir, p)
	}
	srv = nil
	if oracleErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", oracleErr)
		res.Correct = false
	}

	var printed []string
	res.Metrics, printed = endToEnd(win, elapsed, probe, probeElapsed)
	res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	res.Attempted, res.Failed, _ = all.totals()
	extra := []string{
		fmt.Sprintf("# workload %s seed %d: %d closed-loop clients taking turns over their own connections to choreoctl serve -data, %ds window after %s warm-up",
			cfg.workload, cfg.seed, len(p.clients), cfg.seconds, warmup),
		fmt.Sprintf("# migrate population %d instances (fixed); setup runs %v s", p.populationSize(), setups),
		fmt.Sprintf("# failed_ratio %.6f ratio (%d failed of %d attempted)", ratio(res.Failed, res.Attempted), res.Failed, res.Attempted),
	}
	extra = append(extra, printed...)
	extra = append(extra, classLines(win, probe)...)
	// Early and late are the first and the last third of the window.
	if len(winSlices) == slices {
		drift, _ := stationarity(cfg, merge(winSlices[:slices/3]...), merge(winSlices[slices-slices/3:]...), true)
		extra = append(extra, drift...)
	}
	return res, extra, nil
}

func reopenAndVerify(ctx context.Context, dir string, p *plan) error {
	st, err := store.Open(store.WithJournal(dir))
	if err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	defer st.Close()
	if err := p.acked.verifyStore(ctx, st); err != nil {
		return fmt.Errorf("journal reopened after kill: %w", err)
	}
	return nil
}

// e2eClasses are the request classes with end-to-end latency metrics.
var e2eClasses = []string{"evolve", "commit", "check", "migrate", "ingest"}

// slices is how many parts the timed window and the side probe are cut
// into, to run alternately.
const slices = 10

// probeLength is how long the side probe runs in all.
func probeLength(cfg config) time.Duration { return time.Duration(cfg.seconds) * time.Second / 2 }

// endToEnd computes the end-to-end metrics from the timed window,
// except for the classes the workload's mix leaves out, which come
// from its side probe. The bounded metric of each class is
// <class>_p50_rel, the median of its requests' latencies over the
// reference round trip that followed each (see reference.go). It also
// returns the lines of what is printed but carries no bound: each
// class's p50, p90 and p99 in milliseconds, which move with the speed
// of the machine, and the throughputs ops_per_s and events_per_s. A
// closed-loop caller's throughput is the inverse of its mean latency,
// and the mean follows the requests that stall for a scheduler slice:
// with two CPU-bound processes beside the benchmark, ops_per_s fell by
// 35-40% while every median moved by 15% at most.
func endToEnd(win *recorder, elapsed time.Duration, probe *recorder, probeElapsed time.Duration) (map[string]metric, []string) {
	out := map[string]metric{}
	var printed []string
	for _, class := range e2eClasses {
		c := pick(win, probe, class)
		out[class+"_p50_rel"] = metric{quantile(c.ratios, 0.5), "ratio"}
		d := c.durations()
		for _, q := range []int{50, 90, 99} {
			printed = append(printed, fmt.Sprintf("# %s_p%d_ms %.6f ms over %d samples (printed only)", class, q, quantile(d, float64(q)/100), len(d)))
		}
	}
	// The reference round trips are not the workload's time.
	elapsed -= win.refTime
	_, _, completed := win.totals()
	printed = append(printed, fmt.Sprintf("# ops_per_s %.3f 1/s over %d requests in %.3f s (printed only)", float64(completed)/elapsed.Seconds(), completed, elapsed.Seconds()))
	events, el := win.events, elapsed
	if events == 0 {
		events, el = probe.events, probeElapsed-probe.refTime
	}
	printed = append(printed, fmt.Sprintf("# events_per_s %.3f 1/s over %d events (printed only)", float64(events)/el.Seconds(), events))
	return out, printed
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// classLines reports each class's sample counts, so every percentile
// comes with its base.
func classLines(win, probe *recorder) []string {
	var out []string
	for _, src := range []struct {
		name string
		rec  *recorder
	}{{"window", win}, {"probe", probe}} {
		for _, class := range classes {
			c := src.rec.classes[class]
			if c == nil {
				continue
			}
			out = append(out, fmt.Sprintf("# %s %-8s samples %6d attempted %6d failed %d",
				src.name, class, len(c.samples), c.attempted, c.failed))
		}
	}
	return out
}

// stationarity compares each class's p50 early and late in the run and
// flags the run when they differ by more than the class's p50_rel
// bound: the p50 of the latency ratios when rel is set (the end-to-end
// run), else of the latencies. It returns one line per class and the
// largest drift.
func stationarity(cfg config, early, late *recorder, rel bool) ([]string, float64) {
	var out []string
	var worst float64
	values, unit := (*classRec).durations, "ms"
	if rel {
		values, unit = func(c *classRec) []float64 { return c.ratios }, "x"
	}
	for _, class := range classes {
		e, l := early.classes[class], late.classes[class]
		if e == nil || l == nil {
			continue
		}
		first, last := quantile(values(e), 0.5), quantile(values(l), 0.5)
		if first == 0 || last == 0 {
			continue
		}
		drift := last/first - 1
		worst = max(worst, drift, -drift)
		bound := cfg.bound(class + "_p50_rel")
		if bound == 0 {
			bound = cfg.bound("commit_p50_rel") // revert is a commit by PUT
		}
		flag := "steady"
		if drift > bound || -drift > bound {
			flag = "FLAG: not stationary"
		}
		out = append(out, fmt.Sprintf("# stationarity %-8s early p50 %.4f %s, late p50 %.4f %s, drift %+.1f%% (bound %.0f%%): %s",
			class, first, unit, last, unit, 100*drift, 100*bound, flag))
	}
	return out, worst
}
