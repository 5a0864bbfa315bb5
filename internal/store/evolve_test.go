package store

import (
	"errors"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/paperrepro"
)

// pingPong loads a minimal consistent two-party choreography: A
// receives ping from B and answers with pong.
func pingPong(t *testing.T) (*Store, string) {
	t.Helper()
	s := New()
	const id = "pingpong"
	if err := s.Create(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	a := &bpel.Process{Name: "server", Owner: "A", Body: &bpel.Sequence{BlockName: "srv", Children: []bpel.Activity{
		&bpel.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
		&bpel.Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
	}}}
	b := &bpel.Process{Name: "client", Owner: "B", Body: &bpel.Sequence{BlockName: "cli", Children: []bpel.Activity{
		&bpel.Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
		&bpel.Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
	}}}
	if _, err := s.PutParties(ctx, id, []*bpel.Process{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	return s, id
}

func TestRegisterPartyErrors(t *testing.T) {
	s := New()
	if err := s.Create(ctx, "c", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, "c", nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil process: %v, want ErrInvalid", err)
	}
	p := &bpel.Process{Name: "x", Owner: "A", Body: &bpel.Empty{BlockName: "e"}}
	if _, err := s.RegisterParty(ctx, "c", p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, "c", p); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate party: %v, want ErrExists", err)
	}
	if _, err := s.RegisterParty(ctx, "c", &bpel.Process{Name: "bad", Owner: "C"}); err == nil {
		t.Fatal("invalid process accepted")
	}
}

func TestPartiesAndViews(t *testing.T) {
	s, id := pingPong(t)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Parties(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Parties = %v", got)
	}
	if _, ok := snap.Party("Z"); ok {
		t.Fatal("phantom party found")
	}
	v, err := s.View(ctx, id, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if v.NumStates() == 0 {
		t.Fatal("empty view")
	}
	if _, err := s.View(ctx, id, "Z", "B"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("view of unknown party: %v, want ErrNotFound", err)
	}
}

func TestInteractingPairsAndCheck(t *testing.T) {
	s, id := pingPong(t)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := snap.InteractingPairs(); len(pairs) != 1 || pairs[0] != [2]string{"A", "B"} {
		t.Fatalf("pairs = %v", pairs)
	}
	rep, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != "A ↔ B: consistent\n" {
		t.Fatalf("report = %q", got)
	}
	if res, err := s.CheckPair(ctx, id, "A", "B"); err != nil || !res.Consistent {
		t.Fatalf("CheckPair = %+v, %v", res, err)
	}
	if _, err := s.CheckPair(ctx, id, "A", "Z"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown party: %v, want ErrNotFound", err)
	}
	bad := &CheckReport{Pairs: []PairResult{{A: "A", B: "B"}, {A: "A", B: "C", Consistent: true}}}
	if got := bad.String(); got != "A ↔ B: INCONSISTENT\nA ↔ C: consistent\n" {
		t.Fatalf("report = %q", got)
	}
}

func TestEvolveLocalChangeNoPropagation(t *testing.T) {
	s, id := pingPong(t)
	// Inserting an assign is invisible to the public process.
	evo, err := s.Evolve(ctx, id, "A", change.Insert{
		Path: bpel.Path{"Sequence:srv", "Invoke:pong"},
		New:  &bpel.Assign{BlockName: "internal bookkeeping"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if evo.PublicChanged || len(evo.Impacts) != 0 || evo.NeedsPropagation() {
		t.Fatalf("local change: changed=%v impacts=%v", evo.PublicChanged, evo.Impacts)
	}
	// Committing a local change keeps consistency.
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Check(ctx, id); err != nil || !rep.Consistent() {
		t.Fatalf("after local change: %v %v", rep, err)
	}
}

func TestEvolveVariantSubtractive(t *testing.T) {
	s, id := pingPong(t)
	// A stops sending pong: B keeps waiting for it → variant.
	evo, err := s.Evolve(ctx, id, "A", change.Delete{Path: bpel.Path{"Sequence:srv", "Invoke:pong"}})
	if err != nil {
		t.Fatal(err)
	}
	if !evo.PublicChanged || len(evo.Impacts) != 1 {
		t.Fatalf("changed=%v impacts=%v", evo.PublicChanged, evo.Impacts)
	}
	im := evo.Impacts[0]
	if im.Partner != "B" || !im.ViewChanged {
		t.Fatalf("impact = %+v", im)
	}
	if !im.Classification.Kind.Subtractive() || im.Classification.Scope != core.ScopeVariant {
		t.Fatalf("classification = %v, want subtractive variant", im.Classification)
	}
	if !evo.NeedsPropagation() || len(im.Plans) == 0 {
		t.Fatal("variant change not flagged or planned")
	}
}

func TestEvolveUnknownPartyAndBadOp(t *testing.T) {
	s, id := pingPong(t)
	if _, err := s.Evolve(ctx, id, "Z", change.Delete{Path: bpel.Path{"x"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown party: %v, want ErrNotFound", err)
	}
	if _, err := s.Evolve(ctx, id, "A", change.Delete{Path: bpel.Path{"Sequence:ghost"}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad operation: %v, want ErrInvalid", err)
	}
}

func TestApplyOpsErrors(t *testing.T) {
	s, id := pingPong(t)
	// A duplicate pick alternative fails validation (sibling
	// uniqueness) and publishes nothing.
	dup := []change.Operation{change.ReplaceReceiveWithPick{
		Path:  bpel.Path{"Sequence:cli", "Receive:pong"},
		Extra: []bpel.OnMessage{{Partner: "A", Op: "pongOp"}},
	}}
	if _, err := s.ApplyOps(ctx, id, "B", dup, 0); err == nil {
		t.Fatal("duplicate pick alternatives accepted")
	}
	note := []change.Operation{change.Insert{
		Path: bpel.Path{"Sequence:cli", "Invoke:ping"},
		New:  &bpel.Assign{BlockName: "note"},
	}}
	snap, err := s.ApplyOps(ctx, id, "B", note, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := snap.Party("B"); b.Version != 2 || b.Public.NumStates() == 0 {
		t.Fatalf("adapted B at version %d with %d states", b.Version, b.Public.NumStates())
	}
	if _, err := s.ApplyOps(ctx, id, "Z", note, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown partner: %v, want ErrNotFound", err)
	}
}

// evolvedPaperStore loads the paper scenario *after* the Sec. 5.2
// cancel evolution: accounting has the credit-check/cancel switch and
// the buyer has the Fig. 14 pick — the state from which the
// multi-partner reverse propagation below starts.
func evolvedPaperStore(t *testing.T) (*Store, string) {
	t.Helper()
	changedAcc, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	const id = "procurement-cancel"
	if err := s.Create(ctx, id, paperrepro.SyncOps); err != nil {
		t.Fatal(err)
	}
	parties := []*bpel.Process{paperrepro.Fig14BuyerProcess(), changedAcc, paperrepro.LogisticsProcess()}
	if _, err := s.PutParties(ctx, id, parties, nil); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Check(ctx, id); err != nil || !rep.Consistent() {
		t.Fatalf("evolved scenario inconsistent:\n%s(err %v)", rep, err)
	}
	return s, id
}

// TestMultiPartnerSubtractivePropagation exercises propagation onto a
// partner that talks to *more* parties than the change originator: the
// buyer reverts its cancel support (a variant subtractive change from
// the accounting perspective), and the plan against the three-party
// accounting process must go through the foreign-label lift so the
// logistics conversation stays unconstrained.
func TestMultiPartnerSubtractivePropagation(t *testing.T) {
	s, id := evolvedPaperStore(t)

	// The buyer narrows its pick back to a plain delivery receive.
	revert := change.Replace{
		Path: bpel.Path{"Sequence:buyer process", "Pick:delivery or cancel"},
		New:  &bpel.Receive{BlockName: "delivery", Partner: paperrepro.Accounting, Op: "deliveryOp"},
	}
	evo, err := s.Evolve(ctx, id, paperrepro.Buyer, revert)
	if err != nil {
		t.Fatal(err)
	}
	if !evo.PublicChanged {
		t.Fatal("revert did not change the buyer public process")
	}
	acc, ok := evo.Impact(paperrepro.Accounting)
	if !ok || !acc.ViewChanged {
		t.Fatal("accounting view unchanged")
	}
	if acc.Classification.Kind != core.KindSubtractive {
		t.Fatalf("kind = %v, want subtractive", acc.Classification.Kind)
	}
	// The accounting switch mandates the cancel alternative: variant.
	if acc.Classification.Scope != core.ScopeVariant {
		t.Fatalf("scope = %v, want variant", acc.Classification.Scope)
	}
	if len(acc.Plans) != 1 {
		t.Fatalf("plans = %d", len(acc.Plans))
	}
	plan := acc.Plans[0]
	cancel := label.MustParse("A#B#cancelOp")

	// The adapted accounting public must still contain the logistics
	// conversation (the lift keeps foreign labels unconstrained)...
	foreignPreserved := false
	for l := range plan.NewPartnerPublic.Alphabet() {
		if l.Involves(paperrepro.Logistics) {
			foreignPreserved = true
		}
	}
	if !foreignPreserved {
		t.Fatalf("lifted subtractive plan dropped the logistics conversation:\n%s",
			plan.NewPartnerPublic.DebugString())
	}
	// ...but no longer the cancel message.
	if plan.NewPartnerPublic.Alphabet().Has(cancel) {
		t.Fatalf("cancel behavior survived the subtractive plan:\n%s", plan.NewPartnerPublic.DebugString())
	}

	// A hint names the cancel message as removed.
	foundCancel := false
	for _, h := range plan.Hints {
		if h.Label == cancel && !h.Added {
			foundCancel = true
		}
	}
	if !foundCancel {
		t.Fatalf("hints = %v, want removed A#B#cancelOp", plan.Hints)
	}

	// The suggestion engine proposes dropping the cancel-sending
	// activity; committing the revert and then the adaptation restores
	// consistency of the whole choreography, including the untouched
	// logistics pair.
	ops := core.ExecutableOps(acc.Suggestions)
	if len(ops) == 0 {
		t.Fatalf("no executable suggestions: %v", acc.Suggestions)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyOps(ctx, id, paperrepro.Accounting, ops, evo.PartnerVersions[paperrepro.Accounting]); err != nil {
		t.Fatal(err)
	}
	if pair, err := s.CheckPair(ctx, id, paperrepro.Accounting, paperrepro.Buyer); err != nil || !pair.Consistent {
		t.Fatalf("accounting still inconsistent with the buyer after adaptation (err %v)", err)
	}
	if rep, err := s.Check(ctx, id); err != nil || !rep.Consistent() {
		t.Fatalf("choreography broken after reverse propagation:\n%s(err %v)", rep, err)
	}
}

// TestStarChoreographyEvolution runs the full evolution flow on a
// generated hub-and-spokes choreography: a variant change in one
// segment impacts exactly the partner of that segment.
func TestStarChoreographyEvolution(t *testing.T) {
	star, err := gen.GenerateStar(4, gen.DefaultStarParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	const id = "star"
	if err := s.Create(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutParties(ctx, id, append([]*bpel.Process{star.Hub}, star.Partners...), nil); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Check(ctx, id); err != nil || !rep.Consistent() {
		t.Fatalf("star inconsistent:\n%s(err %v)", rep, err)
	}

	// Delete the last partner's kickoff from the hub: a variant change
	// for that partner only (it waits for the kickoff forever).
	last := star.Partners[len(star.Partners)-1].Owner
	kickoffPath, err := star.Hub.FindFirst(func(a bpel.Activity) bool {
		inv, ok := a.(*bpel.Invoke)
		return ok && inv.Partner == last && inv.BlockName == "kickoff"
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := s.Evolve(ctx, id, star.Hub.Owner, change.Delete{Path: kickoffPath})
	if err != nil {
		t.Fatal(err)
	}
	if !evo.PublicChanged {
		t.Fatal("kickoff removal invisible")
	}
	affected := 0
	for _, im := range evo.Impacts {
		if !im.ViewChanged {
			continue
		}
		affected++
		if im.Partner != last {
			t.Fatalf("unexpected impact on %s", im.Partner)
		}
		if im.Classification.Scope != core.ScopeVariant {
			t.Fatalf("scope = %v, want variant", im.Classification.Scope)
		}
	}
	if affected != 1 {
		t.Fatalf("affected partners = %d, want 1", affected)
	}
}

// The adapted candidate of a partner can be previewed without
// committing: change.Composite applies the suggestions and the public
// re-derives under the evolution's registry.
func TestPreviewAdaptationWithoutCommit(t *testing.T) {
	s, id := paperStore(t)
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer, _ := evo.Impact(paperrepro.Buyer)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := snap.Party(paperrepro.Buyer)
	adapted, err := change.Composite{Ops: core.ExecutableOps(buyer.Suggestions)}.Apply(cur.Private)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := derive(adapted, evo.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := afsa.Consistent(buyer.NewView, pub.View(paperrepro.Accounting)); err != nil || !ok {
		t.Fatalf("previewed buyer inconsistent with the changed accounting (err %v)", err)
	}
	// Nothing was committed.
	if after, _ := s.Snapshot(ctx, id); after.Version != snap.Version {
		t.Fatalf("preview advanced the choreography from %d to %d", snap.Version, after.Version)
	}
}
