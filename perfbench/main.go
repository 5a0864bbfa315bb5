// Command perfbench is choreod's end-to-end benchmark. It drives a real
// journaled choreod (choreoctl serve -data) over loopback HTTP with the
// typed client, closed-loop clients that take turns on their own
// connections with one request in flight, and checks every answer
// against the scenario corpus's exact expectations. Each request is
// paired with a round trip to a reference server, and the bounded
// metrics are the latency ratios (see reference.go). With --trace 1 it
// instead embeds the same server in-process behind a benchmark-owned
// handler wrapper and replays the same seeded schedule through each
// layer's public functions, to split every end-to-end number into
// per-layer parts.
//
// Run it from the repository root through run.sh, which builds the
// server and this program:
//
//	bash perfbench/run.sh --workload design --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json declares for the
// mode. The lines before it print every metric with its unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // choreoctl binary
	work     string // scratch directory for journal directories
	spans    string // directory the traced run writes its spans to
	defs     benchmarkFile
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: design, runtime or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.server, "server", ".bench_build/choreoctl", "choreoctl binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory for the traced run's spans")
	reference := flag.Bool("reference", false, "serve the reference round trip (the benchmark starts this itself)")
	flag.Parse()
	if *reference {
		if err := serveReference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -reference:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &cfg.defs); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := newPlan(cfg.workload, cfg.seed); err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	ctx := context.Background()
	var res *result
	var extra []string
	if cfg.trace {
		res, extra, err = runTraced(ctx, cfg)
	} else {
		res, extra, err = runUntraced(ctx, cfg)
	}
	if err != nil {
		return err
	}
	defs := cfg.defs.EndToEnd
	if cfg.trace {
		defs = cfg.defs.PerLayer
	}
	if err := conform(res, defs); err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if res.Correct {
				return fmt.Errorf("metric %s is %v", name, m.Value)
			}
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	for _, line := range extra {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("correctness oracle failed")
	}
	return nil
}

// conform makes the reported metrics exactly the declared ones, with
// the declared units: a metric the run forgot, or one BENCHMARK.json
// does not know, fails the run. A run the oracle stopped early reports
// what it did not measure as 0.
func conform(res *result, defs []metricDef) error {
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok && res.Correct {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		}
		out[d.Name] = metric{Value: m.Value, Unit: d.Unit}
		delete(res.Metrics, d.Name)
	}
	for name := range res.Metrics {
		return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
	}
	res.Metrics = out
	return nil
}

func (cfg config) bound(name string) float64 {
	for _, d := range cfg.defs.EndToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}
