package choreo

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/runtime"
	"repro/internal/store"
)

// TestBilateralVsGlobal is experiment D-7 (criterion ablation): on
// generated two-party choreographies — both intact and mutated — the
// paper's bilateral consistency criterion is compared against global
// deadlock-freedom established by exhaustive execution.
//
// The criterion is *sound*: whenever it reports consistency, execution
// is deadlock-free — any violation fails the test. It is also
// *conservative*: an internal choice whose branch begins with a
// receive makes the partner's support of that receive mandatory even
// though an angelic scheduler (which resolves internal choices only at
// send time) never walks into the trap. Such cases are counted and
// reported, not failed; EXPERIMENTS.md records the measured
// conservatism rate.
func TestBilateralVsGlobal(t *testing.T) {
	consistent, inconsistentConfirmed, conservative := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		conv := gen.MustGenerate(seed, gen.DefaultParams())
		ra, err := mapping.Derive(conv.A, conv.Registry)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Half of the runs mutate party A without propagation.
		procA := conv.A
		if seed%2 == 1 {
			op, err := gen.RandomChange(seed*7, conv.A, conv.Registry)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			mutated, err := op.Apply(conv.A)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			procA = mutated
			ra, err = mapping.Derive(procA, conv.Registry)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		rb, err := mapping.Derive(conv.B, conv.Registry)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ok, err := afsa.Consistent(ra.Automaton.View("B"), rb.Automaton.View("A"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		sys, err := runtime.NewSystem(map[string]*afsa.Automaton{
			"A": ra.Automaton, "B": rb.Automaton,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := sys.Explore(1 << 18)
		deadlockFree := res.DeadlockFree() && !res.Truncated

		switch {
		case ok && !deadlockFree:
			// Soundness violation: the paper's central claim broken.
			t.Fatalf("seed %d: bilaterally consistent but execution fails: %v", seed, res.Failures)
		case ok:
			consistent++
		case !deadlockFree:
			inconsistentConfirmed++
		default:
			conservative++
		}
	}
	if consistent == 0 || inconsistentConfirmed == 0 {
		t.Fatalf("workload not discriminating: consistent=%d confirmed-inconsistent=%d",
			consistent, inconsistentConfirmed)
	}
	t.Logf("D-7: consistent=%d, inconsistent confirmed by execution=%d, conservative flags=%d",
		consistent, inconsistentConfirmed, conservative)
}

// paperEvolution analyzes op on the accounting party of a fresh paper
// scenario without committing it; it returns the analysis and the
// scenario's snapshot it was computed against.
func paperEvolution(tb testing.TB, op ChangeOperation) (*store.Evolution, *store.Snapshot) {
	tb.Helper()
	st, err := PaperScenario()
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := st.Snapshot(context.Background(), PaperChoreography)
	if err != nil {
		tb.Fatal(err)
	}
	evo, err := st.Evolve(context.Background(), PaperChoreography, "A", op)
	if err != nil {
		tb.Fatalf("evolve %s: %v", op, err)
	}
	return evo, snap
}

// publicsOf returns the public processes of snap's parties, with
// replace substituting some of them.
func publicsOf(snap *store.Snapshot, replace map[string]*Automaton) map[string]*Automaton {
	out := map[string]*Automaton{}
	for _, name := range snap.Parties() {
		p, _ := snap.Party(name)
		out[name] = p.Public
	}
	for name, a := range replace {
		out[name] = a
	}
	return out
}

// TestControlledEvolutionPreventsDeadlock is experiment D-4 as a
// correctness statement: committing a variant change without
// propagation makes execution fail; following the framework's
// propagation keeps every seed deadlock-free.
func TestControlledEvolutionPreventsDeadlock(t *testing.T) {
	ctx := context.Background()
	for _, scenario := range []struct {
		name string
		op   ChangeOperation
	}{
		{"cancel (Sec. 5.2)", PaperCancelChange()},
		{"tracking limit (Sec. 5.3)", PaperTrackingLimitChange()},
	} {
		st, err := PaperScenario()
		if err != nil {
			t.Fatal(err)
		}
		evo, err := st.Evolve(ctx, PaperChoreography, "A", scenario.op)
		if err != nil {
			t.Fatalf("%s: %v", scenario.name, err)
		}

		// Uncontrolled: commit without propagation.
		snap, err := st.CommitEvolution(ctx, evo)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(publicsOf(snap, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res := sys.Explore(0); res.DeadlockFree() {
			t.Fatalf("%s: uncontrolled evolution did not fail", scenario.name)
		}

		// Controlled: then apply the suggested buyer adaptation.
		im, _ := evo.Impact("B")
		snap, err = st.ApplyOps(ctx, PaperChoreography, "B", ExecutableSuggestions(im.Suggestions), evo.PartnerVersions["B"])
		if err != nil {
			t.Fatalf("%s: %v", scenario.name, err)
		}
		sys, err = NewSystem(publicsOf(snap, nil))
		if err != nil {
			t.Fatal(err)
		}
		if exec := sys.Explore(0); !exec.DeadlockFree() {
			t.Fatalf("%s: controlled evolution still fails: %v", scenario.name, exec.Failures)
		}
	}
}

// TestPublicAPISurface exercises the quick-start shown in the package
// documentation.
func TestPublicAPISurface(t *testing.T) {
	server := &Process{Name: "server", Owner: "A",
		Body: &Sequence{BlockName: "srv", Children: []Activity{
			&Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
			&Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
		}}}
	client := &Process{Name: "client", Owner: "B",
		Body: &Sequence{BlockName: "cli", Children: []Activity{
			&Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
			&Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
		}}}
	ctx := context.Background()
	st := NewChoreographyStore()
	if err := st.Create(ctx, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutParties(ctx, "ping", []*Process{server, client}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := st.Check(ctx, "ping")
	if err != nil || !report.Consistent() {
		t.Fatalf("check: %v", err)
	}
	evo, err := st.Evolve(ctx, "ping", "A", Delete{Path: Path{"Sequence:srv", "Invoke:pong"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evo.Impacts) != 1 || evo.Impacts[0].Classification.Scope != ScopeVariant {
		t.Fatalf("impacts = %+v", evo.Impacts)
	}
	if !evo.Impacts[0].Classification.Kind.Subtractive() {
		t.Fatalf("kind = %v", evo.Impacts[0].Classification.Kind)
	}
	if len(evo.Impacts[0].Suggestions) == 0 {
		t.Fatal("no suggestions for the client")
	}
	if _, err := st.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	report, err = st.Check(ctx, "ping")
	if err != nil || report.Consistent() {
		t.Fatalf("check after the unpropagated change:\n%s(err %v)", report, err)
	}

	// XML round trip through the public API.
	data, err := MarshalProcessXML(server)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalProcessXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "server" {
		t.Fatal("XML round trip lost the name")
	}

	// Formula/label helpers.
	l := NewLabel("A", "B", "x")
	if l.Sender() != "A" {
		t.Fatal("label helper broken")
	}
	f, err := ParseFormula("A#B#x AND A#B#y")
	if err != nil || f.IsTrue() {
		t.Fatal("formula helper broken")
	}
	if _, err := ParseLabel("garbage#"); err == nil {
		t.Fatal("ParseLabel accepted garbage")
	}
	if fmt.Sprint(Epsilon) != "ε" {
		t.Fatal("epsilon rendering broken")
	}
}
