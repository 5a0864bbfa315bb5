// Command allocgate verifies the repository's //choreolint:allocfree
// contract: a function carrying that marker in its doc comment must
// not allocate. The hot paths it guards — Stepper.StepSym on the
// per-event replay loop, determinize/minimize inner-loop helpers,
// applyIngest's per-event advance — run millions of times per scenario
// under locks; one heap allocation there shows up directly in
// BenchmarkScenarioConsistency's allocs/op.
//
// Rather than re-deriving escape analysis, allocgate asks the compiler
// for its verdict: it runs `go build -gcflags=<importpath>=-m=1` per
// package containing marked functions and flags every "escapes to
// heap" / "moved to heap" diagnostic whose position falls inside a
// marked function's declaration. The -m output replays from the build
// cache, so a clean run after the first is nearly free. Replayed paths
// are relative to whichever directory first compiled the package, so
// they are matched to the package's own files rather than resolved
// against the working directory; a compile whose diagnostics name no
// file of the package fails the gate instead of passing it.
//
//	go run ./tools/allocgate ./...
//
// Known limit: -m reports escape sites, not every allocation. Append
// growth of an already-heap-allocated slice and writes into existing
// maps produce no -m line; the marker therefore proves "no NEW
// escaping values", which is the property the benchmarks depend on.
// Exit status 1 when any marked function allocates.
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, err := Check(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
