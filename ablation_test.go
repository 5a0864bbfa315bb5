package choreo

import (
	"testing"

	"repro/internal/afsa"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/runtime"
)

// TestAblationAnnotations is experiment D-9: what breaks without the
// "annotated" part of the aFSA model? Consistency degenerates to plain
// language-intersection non-emptiness, and the paper's own subtractive
// scenario (Fig. 16) is misclassified: the intersection still contains
// words (order·delivery·terminate), so the plain-FSA check calls the
// pair consistent although the buyer's data-driven tracking decision
// can deadlock at runtime. The annotation semantics is what makes
// Def. 6 sound.
func TestAblationAnnotations(t *testing.T) {
	evo, snap := paperEvolution(t, PaperTrackingLimitChange())
	im, _ := evo.Impact("B")
	buyerParty, _ := snap.Party("B")

	// Full aFSA semantics: variant (annotated-empty intersection).
	full := im.NewView.Intersect(buyerParty.Public)
	empty, err := full.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatal("annotated check should report inconsistency")
	}

	// Ablated: strip annotations — the plain FSA check is fooled.
	stripped := im.NewView.StripAnnotations().Intersect(buyerParty.Public.StripAnnotations())
	emptyStripped, err := stripped.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if emptyStripped {
		t.Fatal("ablation expectation broken: even the plain FSA check fails the pair")
	}

	// And the runtime confirms the annotated verdict: executing the
	// unpropagated pair can fail.
	sys, err := runtime.NewSystem(publicsOf(snap, map[string]*afsa.Automaton{"A": evo.NewPublic}))
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.Explore(0); res.DeadlockFree() {
		t.Fatal("runtime found no failure although the annotated check predicted one")
	}
}

// TestAblationAnnotationsRate measures the miss rate of the ablated
// check on generated workloads: pairs where the annotated criterion
// reports inconsistency but the plain-FSA check reports consistency.
func TestAblationAnnotationsRate(t *testing.T) {
	missed, inconsistent := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		conv := gen.MustGenerate(seed, gen.DefaultParams())
		op, err := gen.RandomChange(seed*13+1, conv.A, conv.Registry)
		if err != nil {
			t.Fatal(err)
		}
		mutated, err := op.Apply(conv.A)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := mapping.Derive(mutated, conv.Registry)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := mapping.Derive(conv.B, conv.Registry)
		if err != nil {
			t.Fatal(err)
		}
		va, vb := ra.Automaton.View("B"), rb.Automaton.View("A")
		annotated, err := afsa.Consistent(va, vb)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := afsa.Consistent(va.StripAnnotations(), vb.StripAnnotations())
		if err != nil {
			t.Fatal(err)
		}
		if annotated && !plain {
			t.Fatalf("seed %d: stripping annotations cannot make a pair inconsistent", seed)
		}
		if !annotated {
			inconsistent++
			if plain {
				missed++
			}
		}
	}
	if inconsistent == 0 {
		t.Fatal("workload produced no inconsistent pairs")
	}
	t.Logf("D-9: %d/%d inconsistencies missed by the annotation-free check", missed, inconsistent)
}

// TestAblationViewProjection checks the annotation-projection rule of
// view generation (DESIGN.md §3): substituting hidden variables by
// true instead of their first visible labels loses the Fig. 12
// inconsistency entirely.
func TestAblationViewProjection(t *testing.T) {
	evo, snap := paperEvolution(t, PaperCancelChange())
	im, _ := evo.Impact("B")
	buyerParty, _ := snap.Party("B")

	// The proper projection keeps the mandatory cancel/delivery
	// alternative and detects the inconsistency (asserted elsewhere).
	// Ablation: drop *all* annotations from the view — the naive
	// "views are plain homomorphic images" reading.
	naive := im.NewView.StripAnnotations()
	ok, err := afsa.Consistent(naive, buyerParty.Public)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ablation expectation broken: naive view already inconsistent")
	}
	// Yet execution with the changed accounting fails (validated in
	// TestAblationAnnotations for the subtractive case and in
	// internal/runtime for this one) — the projected annotations are
	// load-bearing.
}
