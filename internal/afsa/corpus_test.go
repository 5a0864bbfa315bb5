package afsa_test

import (
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestCorpusEquivalentMatchesReference runs the minimal-is-canonical
// properties on the automata evolve actually compares: for every
// corpus episode, the originator's public process before and after the
// change and every other party's view of both, each also moved onto a
// shared interner the way the store publishes them.
func TestCorpusEquivalentMatchesReference(t *testing.T) {
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	var pairs, equal int
	check := func(what string, a, b *afsa.Automaton) {
		t.Helper()
		for _, x := range []*afsa.Automaton{a, b} {
			if !x.IsMinimal() {
				t.Fatalf("%s: %s not marked minimal", what, x.Name)
			}
			if !afsa.Identical(x, afsa.RefRenumber(x)) {
				t.Fatalf("%s: %s not in canonical numbering", what, x.Name)
			}
		}
		got := afsa.Equivalent(a, b)
		if want := afsa.RefEquivalent(a, b); got != want {
			t.Fatalf("%s: Equivalent = %v, reference %v", what, got, want)
		}
		if why := afsa.ExplainDifference(a, b); got != (why == "") {
			t.Fatalf("%s: Equivalent = %v, ExplainDifference = %q", what, got, why)
		}
		pairs++
		if got {
			equal++
		}
	}
	for _, sc := range scs {
		reg, err := store.InferRegistry(sc.Parties, sc.SyncOps)
		if err != nil {
			t.Fatal(err)
		}
		shared := label.NewInterner()
		for _, ep := range sc.Episodes {
			what := sc.Name + "/" + ep.Name
			ops, err := ep.Operations()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			changed, err := change.Composite{Ops: ops}.Apply(sc.Party(ep.Party))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			procs := make([]*bpel.Process, len(sc.Parties))
			for i, p := range sc.Parties {
				procs[i] = p
				if p.Owner == ep.Party {
					procs[i] = changed
				}
			}
			newReg, err := store.InferRegistry(procs, sc.SyncOps)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			before, err := mapping.Derive(sc.Party(ep.Party), reg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			after, err := mapping.Derive(changed, newReg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			oldPub, newPub := before.Automaton, after.Automaton
			check(what+" public", oldPub, newPub)
			// As the store publishes it: derived, then reinterned.
			rederived, err := mapping.Derive(sc.Party(ep.Party), reg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sharedOld := rederived.Automaton
			sharedOld.Reintern(shared)
			check(what+" public (shared interner)", sharedOld, newPub)
			for _, p := range sc.Parties {
				if p.Owner == ep.Party {
					continue
				}
				check(what+" view for "+p.Owner, oldPub.View(p.Owner), newPub.View(p.Owner))
				check(what+" view for "+p.Owner+" (shared interner)", sharedOld.View(p.Owner), newPub.View(p.Owner))
			}
		}
	}
	t.Logf("%d pairs, %d equivalent", pairs, equal)
	if pairs == 0 || equal == 0 || equal == pairs {
		t.Fatalf("vacuous corpus run: %d of %d pairs equivalent", equal, pairs)
	}
}
