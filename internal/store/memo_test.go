package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
)

// TestEvolveMemoMissThenHit evolves every corpus episode twice on one
// snapshot: the first evolve fills the party version's memo of its
// minimal public, the second reads it. Both must match referenceEvolve,
// which derives every public afresh and uses no memo.
func TestEvolveMemoMissThenHit(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		s := New()
		if err := s.Create(ctx, sc.Name, sc.SyncOps); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutParties(ctx, sc.Name, sc.Parties, nil); err != nil {
			t.Fatal(err)
		}
		for _, ep := range sc.Episodes {
			what := sc.Name + "/" + ep.Name
			ops, err := ep.Operations()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			snap, err := s.Snapshot(ctx, sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			ps := snap.parties[ep.Party]
			var memo *afsa.Automaton
			for _, round := range []string{"miss", "hit"} {
				evo, err := s.evolveSnapshot(ctx, snap, ep.Party, ops)
				if err != nil {
					t.Fatalf("%s (%s): %v", what, round, err)
				}
				if memo == nil {
					memo = ps.minPublic
				}
				// A public published by a rebuild is Derive output,
				// reinterned: still marked, so the memo is Public itself.
				if ps.minPublic != memo || memo != ps.Public {
					t.Fatalf("%s (%s): memo %p, want the marked public %p", what, round, ps.minPublic, ps.Public)
				}
				changed, impacts, err := referenceEvolve(sc.Parties, evo.Registry, ep.Party, ops)
				if err != nil {
					t.Fatalf("%s: reference: %v", what, err)
				}
				sameImpacts(t, what+" ("+round+") vs reference", evo, changed, impacts)
			}
		}
	}
}

// TestEvolveMemoFollowsVersion checks that evolve reads the memo of the
// party version it analyzes. CommitEvolution publishes the derived
// public with its minimal mark, so the new version's memo is that
// public itself; an invisible probe change must then leave the public
// unchanged, which a memo of the pre-commit version would contradict.
// After UpdateParty restores the scripted process, the episode must
// analyze as on the original choreography.
func TestEvolveMemoFollowsVersion(t *testing.T) {
	probed := 0
	for _, sc := range corpusScenarios(t) {
		s := New()
		if err := s.Create(ctx, sc.Name, sc.SyncOps); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutParties(ctx, sc.Name, sc.Parties, nil); err != nil {
			t.Fatal(err)
		}
		for _, ep := range sc.Episodes {
			what := sc.Name + "/" + ep.Name
			ops, err := ep.Operations()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			evo, err := s.Evolve(ctx, sc.Name, ep.Party, ops...)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			committed, err := s.CommitEvolution(ctx, evo)
			if err != nil {
				t.Fatalf("%s: commit: %v", what, err)
			}
			ps := committed.parties[ep.Party]
			if ps.minPublic != nil || !ps.Public.IsMinimal() {
				t.Fatalf("%s: committed version starts with memo %p, public marked %v", what, ps.minPublic, ps.Public.IsMinimal())
			}
			if seq, ok := evo.NewPrivate.Body.(*bpel.Sequence); ok && len(seq.Children) > 0 {
				probe := change.Insert{
					Path: bpel.Path{bpel.Element(seq), bpel.Element(seq.Children[0])},
					New:  &bpel.Assign{BlockName: "memo probe"},
				}
				procs := make([]*bpel.Process, len(sc.Parties))
				for i, p := range sc.Parties {
					procs[i] = p
					if p.Owner == ep.Party {
						procs[i] = evo.NewPrivate
					}
				}
				requireReference(t, s, what+" probe after commit", sc.Name, procs, ep.Party, []change.Operation{probe})
				if ps.minPublic != ps.Public {
					t.Fatalf("%s: memo after commit %p, want the committed public %p", what, ps.minPublic, ps.Public)
				}
				probed++
			}
			updated, err := s.UpdateParty(ctx, sc.Name, sc.Party(ep.Party), nil)
			if err != nil {
				t.Fatalf("%s: update: %v", what, err)
			}
			requireReference(t, s, what+" after update", sc.Name, sc.Parties, ep.Party, ops)
			if ps := updated.parties[ep.Party]; ps.minPublic != ps.Public {
				t.Fatalf("%s: memo after update %p, want the updated public %p", what, ps.minPublic, ps.Public)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no episode could be probed after its commit")
	}
}

// withUnmarkedPublic returns a copy of snap in which party's state holds
// an unmarked clone of its public. Every store path publishes Derive
// output, which is marked, so this is how a test reaches the branch of
// minimalPublic that minimizes.
func withUnmarkedPublic(snap *Snapshot, party string) *Snapshot {
	next := snap.clone()
	old := snap.parties[party]
	next.parties[party] = newPartyState(old.Private,
		&mapping.Result{Automaton: old.Public.Clone(), Table: old.Table}, old.Version)
	next.computePairs()
	return next
}

// TestConcurrentEvolveSharesMemo evolves one party version from
// several goroutines at once, on a version whose public is unmarked so
// that the memo has to minimize: every evolve must see the one
// memoized form and agree with the reference.
func TestConcurrentEvolveSharesMemo(t *testing.T) {
	s, id := paperStore(t)
	base, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	snap := withUnmarkedPublic(base, paperrepro.Accounting)
	ps := snap.parties[paperrepro.Accounting]
	if ps.Public.IsMinimal() {
		t.Fatal("the public of the test version is still marked minimal")
	}
	ops := []change.Operation{paperrepro.CancelChange()}
	const workers = 4
	evos := make([]*Evolution, workers)
	memos := make([]*afsa.Automaton, workers)
	var wg sync.WaitGroup
	for w := range evos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memos[w] = ps.minimalPublic()
			e, err := s.evolveSnapshot(ctx, snap, paperrepro.Accounting, ops)
			if err != nil {
				t.Error(err)
				return
			}
			evos[w] = e
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	memo := ps.minPublic
	if memo == nil || memo == ps.Public || !memo.IsMinimal() || !afsa.Equivalent(memo, ps.Public) {
		t.Fatal("memo of the unmarked version is not a minimization of its public")
	}
	procs := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	for w, e := range evos {
		if memos[w] != memo {
			t.Fatalf("worker %d read memo %p, want the one memo %p", w, memos[w], memo)
		}
		changed, impacts, err := referenceEvolve(procs, e.Registry, paperrepro.Accounting, ops)
		if err != nil {
			t.Fatal(err)
		}
		sameImpacts(t, fmt.Sprintf("worker %d vs reference", w), e, changed, impacts)
	}
}

// evolveAllocsCeiling is the allocation budget of one evolve, averaged
// over the corpus episodes with the memos warm. docs/bench.md records
// the measured count it sits above and the tolerance.
const evolveAllocsCeiling = 2100

// TestEvolveAllocsBudget gates the allocation count of the evolve
// analysis, which is deterministic where its wall time is not.
func TestEvolveAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	type job struct {
		id, party string
		ops       []change.Operation
	}
	s := New()
	var jobs []job
	for _, sc := range corpusScenarios(t) {
		if err := s.Create(ctx, sc.Name, sc.SyncOps); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutParties(ctx, sc.Name, sc.Parties, nil); err != nil {
			t.Fatal(err)
		}
		for _, ep := range sc.Episodes {
			ops, err := ep.Operations()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{sc.Name, ep.Party, ops})
		}
	}
	if len(jobs) < 15 {
		t.Fatalf("%d corpus episodes, want at least 15", len(jobs))
	}
	evolveAll := func() {
		for _, j := range jobs {
			if _, err := s.Evolve(ctx, j.id, j.party, j.ops...); err != nil {
				t.Fatal(err)
			}
		}
	}
	evolveAll() // warm the view and public memos
	perEvolve := testing.AllocsPerRun(5, evolveAll) / float64(len(jobs))
	t.Logf("%.0f allocs per evolve over %d episodes (ceiling %d)", perEvolve, len(jobs), evolveAllocsCeiling)
	if perEvolve > evolveAllocsCeiling {
		t.Fatalf("evolve allocates %.0f times per episode, over the ceiling of %d", perEvolve, evolveAllocsCeiling)
	}
}
