// Command benchjson runs the repository's kernel benchmarks and
// records them as JSON, so the performance trajectory of the aFSA
// compute kernel is diffable across PRs instead of living in CI logs.
//
// It shells out to `go test -bench` for each target, parses the
// standard benchmark output (including -benchmem columns and custom
// ReportMetric units), and merges the results into the output file
// under the given run label:
//
//	go run ./tools/benchjson -label after -out BENCH_afsa.json
//
// Repeated runs with different labels accumulate side by side in one
// file — the committed BENCH_afsa.json keeps a "before"/"after" pair
// per optimization PR. The schema is documented in docs/bench.md and
// pinned by the docscheck-style CI step (see .github/workflows).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// target is one `go test -bench` invocation.
type target struct {
	Pkg   string
	Bench string
}

// defaultTargets covers the kernel benchmarks the perf acceptance
// criteria track: whole-scenario consistency, the operator scaling
// series, public-process derivation, the bulk-migration sweep, and the
// streaming event-ingestion path, the evolution analysis, and the
// mixed-traffic load harness.
var defaultTargets = []target{
	{Pkg: ".", Bench: "^(BenchmarkScenarioConsistency|BenchmarkIntersectScale|BenchmarkMinimizeScale|BenchmarkDeriveScale|BenchmarkScenarioCommitJournal)$"},
	{Pkg: "./internal/store", Bench: "^(BenchmarkMigrateAll|BenchmarkIngestEvents|BenchmarkChaosSoak|BenchmarkEvolveAnalysis)$"},
	{Pkg: "./internal/loadgen", Bench: "^(BenchmarkLoadgen|BenchmarkLoadgenFaults)$"},
}

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled benchmark sweep.
type Run struct {
	RecordedAt string      `json:"recorded_at"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk schema (docs/bench.md).
type File struct {
	Schema string         `json:"schema"`
	Runs   map[string]Run `json:"runs"`
}

const schemaVersion = "choreod-bench/v1"

func main() {
	out := flag.String("out", "BENCH_afsa.json", "output JSON file (merged into if it exists)")
	runLabel := flag.String("label", "", "run label to record under (e.g. before, after, ci); required")
	benchtime := flag.String("benchtime", "200ms", "passed to go test -benchtime")
	count := flag.Int("count", 1, "passed to go test -count")
	flag.Parse()
	if *runLabel == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}

	run := Run{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchtime:  *benchtime,
	}
	for _, t := range defaultTargets {
		bs, err := runTarget(t, *benchtime, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", t.Pkg, err)
			os.Exit(1)
		}
		run.Benchmarks = append(run.Benchmarks, bs...)
	}
	if len(run.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	file := File{Schema: schemaVersion, Runs: map[string]Run{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: existing %s unreadable: %v\n", *out, err)
			os.Exit(1)
		}
		if file.Runs == nil {
			file.Runs = map[string]Run{}
		}
	}
	file.Schema = schemaVersion
	file.Runs[*runLabel] = run

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: recorded %d benchmarks as %q in %s\n", len(run.Benchmarks), *runLabel, *out)
}

func runTarget(t target, benchtime string, count int) ([]Benchmark, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", t.Bench,
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		"-benchmem", t.Pkg)
	cmd.Env = os.Environ()
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test: %v\n%s", err, outBytes)
	}
	return parseBench(t.Pkg, string(outBytes))
}

// benchLine matches e.g.
//
//	BenchmarkMinimizeScale/n=8-8   10000   25578 ns/op   12032 B/op   318 allocs/op
var procSuffix = regexp.MustCompile(`-\d+$`)

func parseBench(pkg, out string) ([]Benchmark, error) {
	var res []Benchmark
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       procSuffix.ReplaceAllString(fields[0], ""),
			Package:    pkg,
			Iterations: iters,
		}
		// The remainder alternates value/unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %v", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		res = append(res, b)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", out)
	}
	return res, nil
}
