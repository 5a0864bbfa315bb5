package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
	"repro/internal/wsdl"
)

// derive is a shorthand returning just the public automaton.
func derive(p *bpel.Process, reg *wsdl.Registry) (*afsa.Automaton, error) {
	res, err := mapping.Derive(p, reg)
	if err != nil {
		return nil, err
	}
	return res.Automaton, nil
}

func genID(i int) string { return fmt.Sprintf("conv-%03d", i) }

// ctx is the background context shared by the package tests; the
// cancellation tests build their own.
var ctx = context.Background()

// paperStore loads the paper's procurement scenario (Sec. 2) into a
// fresh store.
func paperStore(t *testing.T) (*Store, string) {
	t.Helper()
	s := New(WithShards(4))
	const id = "procurement"
	if err := s.Create(ctx, id, paperrepro.SyncOps); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	} {
		if _, err := s.RegisterParty(ctx, id, p); err != nil {
			t.Fatalf("RegisterParty(%s): %v", p.Owner, err)
		}
	}
	return s, id
}

// The inferred registry must reproduce the hand-written paper
// registry: the derived publics agree with a choreography built on
// paperrepro.Registry().
func TestInferredRegistryMatchesPaper(t *testing.T) {
	s, id := paperStore(t)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*bpel.Process{
		paperrepro.Buyer:      paperrepro.BuyerProcess(),
		paperrepro.Accounting: paperrepro.AccountingProcess(),
		paperrepro.Logistics:  paperrepro.LogisticsProcess(),
	}
	// Reference derivation through the hand-written registry.
	reg := paperrepro.Registry()
	for name, p := range want {
		ps, ok := snap.Party(name)
		if !ok {
			t.Fatalf("party %s missing", name)
		}
		refRes, err := derive(p, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !afsa.Equivalent(ps.Public, refRes) {
			t.Fatalf("inferred-registry public of %s differs from paper registry derivation", name)
		}
	}
}

func TestCheckAndCaching(t *testing.T) {
	s, id := paperStore(t)
	rep, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("paper scenario inconsistent: %+v", rep.Pairs)
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("pairs = %d, want 2 (B↔A, A↔L)", len(rep.Pairs))
	}
	for _, p := range rep.Pairs {
		if p.Cached {
			t.Fatalf("first check reported cached pair %s/%s", p.A, p.B)
		}
	}
	st0 := s.Stats()
	rep2, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep2.Pairs {
		if !p.Cached {
			t.Fatalf("second check missed the cache for pair %s/%s", p.A, p.B)
		}
	}
	st1 := s.Stats()
	if got := st1.ConsistencyHits - st0.ConsistencyHits; got != 2 {
		t.Fatalf("cache hits on second check = %d, want 2", got)
	}
	if st1.ConsistencyMisses != st0.ConsistencyMisses {
		t.Fatalf("second check recomputed %d pairs", st1.ConsistencyMisses-st0.ConsistencyMisses)
	}
}

// A commit must invalidate exactly the pairs the changed party touches:
// updating the logistics process recomputes A↔L but keeps B↔A cached.
func TestCacheInvalidationIsPairScoped(t *testing.T) {
	s, id := paperStore(t)
	if _, err := s.Check(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateParty(ctx, id, paperrepro.LogisticsProcess(), nil); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	byPair := map[string]bool{}
	for _, p := range rep.Pairs {
		byPair[p.A+"/"+p.B] = p.Cached
	}
	if !byPair["B/A"] {
		t.Fatal("B↔A was invalidated although neither B nor A changed")
	}
	if byPair["A/L"] {
		t.Fatal("A↔L still cached although L changed")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s, id := paperStore(t)
	before, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	accBefore, _ := before.Party(paperrepro.Accounting)
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	// The old snapshot is untouched by the commit.
	accStill, _ := before.Party(paperrepro.Accounting)
	if accStill != accBefore || accStill.Version != accBefore.Version {
		t.Fatal("committed evolution mutated a held snapshot")
	}
	after, _ := s.Snapshot(ctx, id)
	accAfter, _ := after.Party(paperrepro.Accounting)
	if accAfter.Version != accBefore.Version+1 {
		t.Fatalf("accounting version = %d, want %d", accAfter.Version, accBefore.Version+1)
	}
	if afsa.Equivalent(accBefore.Public, accAfter.Public) {
		t.Fatal("cancel change did not alter the accounting public process")
	}
	// Unchanged parties share state (and so their view memos) between
	// the snapshots.
	buyerBefore, _ := before.Party(paperrepro.Buyer)
	buyerAfter, _ := after.Party(paperrepro.Buyer)
	if buyerBefore != buyerAfter {
		t.Fatal("unchanged buyer state was copied instead of shared")
	}
}

func TestCommitConflict(t *testing.T) {
	s, id := paperStore(t)
	evo1, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.OrderTwoChange())
	if err != nil {
		t.Fatal(err)
	}
	evo2, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo2); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit error = %v, want ErrConflict", err)
	}
	if s.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Stats().Conflicts)
	}
}

// The full Sec. 5.2 loop through the store: evolve, commit, apply the
// suggested buyer adaptation, and the choreography is consistent
// again.
func TestCancelPropagationEndToEnd(t *testing.T) {
	s, id := paperStore(t)
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	if !evo.NeedsPropagation() {
		t.Fatal("cancel change not flagged for propagation")
	}
	buyer, ok := evo.Impact(paperrepro.Buyer)
	if !ok {
		t.Fatal("no buyer impact")
	}
	if buyer.Classification.Kind != core.KindAdditive || buyer.Classification.Scope != core.ScopeVariant {
		t.Fatalf("buyer classification = %v", buyer.Classification)
	}
	if len(buyer.Plans) != 1 || len(buyer.Suggestions) == 0 {
		t.Fatalf("plans = %d, suggestions = %d", len(buyer.Plans), len(buyer.Suggestions))
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent() {
		t.Fatal("choreography should be inconsistent before the buyer adapts")
	}
	ops := core.ExecutableOps(buyer.Suggestions)
	if len(ops) == 0 {
		t.Fatal("no executable suggestion")
	}
	// A stale base version is rejected...
	buyerVersion := evo.PartnerVersions[paperrepro.Buyer]
	if _, err := s.ApplyOps(ctx, id, paperrepro.Buyer, ops, buyerVersion+1); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale ApplyOps error = %v, want ErrConflict", err)
	}
	// ...the recorded one commits.
	if _, err := s.ApplyOps(ctx, id, paperrepro.Buyer, ops, buyerVersion); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("choreography inconsistent after propagation: %+v", rep.Pairs)
	}
}

// Sec. 5.3: the subtractive tracking-limit change on the buyer, with
// instance migration against the pending schema (Sec. 8).
func TestTrackingLimitWithMigration(t *testing.T) {
	s, id := paperStore(t)
	// Sample running buyer instances under the old (unbounded
	// tracking) schema.
	insts, err := s.SampleInstances(ctx, id, paperrepro.Accounting, 7, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 60 {
		t.Fatalf("sampled %d instances", len(insts))
	}
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	if !evo.PublicChanged {
		t.Fatal("tracking limit did not change the accounting public process")
	}
	// Pre-commit what-if: some long-tracking instances cannot migrate.
	rep, err := s.Migrate(ctx, id, paperrepro.Accounting, evo.NewPublic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 60 {
		t.Fatalf("migration total = %d", rep.Total)
	}
	if rep.Migratable == 0 {
		t.Fatal("no instance migratable at all")
	}
	if rep.Migratable == rep.Total {
		t.Fatal("every instance migratable — the subtractive change should strand long trackers")
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	// Post-commit, nil candidate = current public: same report.
	rep2, err := s.Migrate(ctx, id, paperrepro.Accounting, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Migratable != rep.Migratable || rep2.Total != rep.Total {
		t.Fatalf("post-commit migration %+v differs from pre-commit %+v", rep2, rep)
	}
}

func TestNotFoundAndDuplicates(t *testing.T) {
	s := New()
	if _, err := s.Check(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Check(ghost) = %v, want ErrNotFound", err)
	}
	if err := s.Create(ctx, "c", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(ctx, "c", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := s.RegisterParty(ctx, "c", paperrepro.BuyerProcess()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, "c", paperrepro.BuyerProcess()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate RegisterParty = %v, want ErrExists", err)
	}
	if err := s.Delete(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
}

// Sharding must keep independent choreographies independent: generated
// two-party conversations register, check and evolve across many IDs.
func TestManyChoreographies(t *testing.T) {
	s := New(WithShards(8))
	p := gen.Params{PartyA: "A", PartyB: "B", Messages: 6, MaxDepth: 2, ChoiceProb: 30, MaxBranch: 2}
	for i := 0; i < 20; i++ {
		id := genID(i)
		conv, err := gen.Generate(int64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Create(ctx, id, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterParty(ctx, id, conv.A); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterParty(ctx, id, conv.B); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Check(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Consistent() {
			t.Fatalf("generated conversation %d inconsistent", i)
		}
	}
	if got := s.Stats().Choreographies; got != 20 {
		t.Fatalf("stored choreographies = %d, want 20", got)
	}
	ids, err := s.IDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ids); got != 20 {
		t.Fatalf("IDs() = %d, want 20", got)
	}
}
