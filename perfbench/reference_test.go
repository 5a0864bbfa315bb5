package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference server, which
// startReference runs as this executable with -reference.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-reference" {
		if err := serveReference(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// Every completed request gets one ratio to the round trip after it,
// a failed request gets none, and a reference that stops answering
// fails the run.
func TestReferencePairing(t *testing.T) {
	ref, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(ref)
	for i := 0; i < 5; i++ {
		t0 := rec.begin()
		time.Sleep(time.Millisecond)
		rec.end("check", t0, nil)
	}
	rec.end("check", rec.begin(), errors.New("refused"))
	c := rec.classes["check"]
	if len(c.ratios) != 5 || len(c.samples) != 5 {
		t.Fatalf("%d ratios for %d samples, want 5 each", len(c.ratios), len(c.samples))
	}
	for _, r := range c.ratios {
		if !(r > 0) {
			t.Fatalf("ratio %v, want > 0", r)
		}
	}
	if rec.refTime <= 0 {
		t.Error("no reference time recorded")
	}

	if rec.refErr != nil {
		t.Fatalf("reference failed: %v", rec.refErr)
	}

	ref.stop()
	after := newRecorder(ref)
	after.end("check", after.begin(), nil)
	if err := requireClean(merge(after), nil); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("a run whose reference stopped answering gave %v, want a reference failure", err)
	}
}
