package core

import (
	"strings"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/formula"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// suggestSetup builds a partner process, derives its public process
// and plans against a changed view.
func suggestSetup(t *testing.T, partner *bpel.Process, reg *wsdl.Registry, newView *afsa.Automaton, additive bool) (*Plan, *Suggester) {
	t.Helper()
	res, err := mapping.Derive(partner, reg)
	if err != nil {
		t.Fatal(err)
	}
	var plan *Plan
	if additive {
		plan, err = PlanAdditive(newView, res.Automaton, res.Table)
	} else {
		plan, err = PlanSubtractive(newView, res.Automaton, res.Table)
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan, &Suggester{Private: partner, Registry: reg}
}

func TestSuggestExtendExistingPick(t *testing.T) {
	// Partner already uses a pick: the suggestion extends it instead
	// of widening a receive.
	partner := &bpel.Process{Name: "p", Owner: "B", Body: &bpel.Sequence{BlockName: "root", Children: []bpel.Activity{
		&bpel.Pick{BlockName: "pk", Branches: []bpel.OnMessage{
			{Partner: "A", Op: "x", Body: &bpel.Empty{BlockName: "ex"}},
			{Partner: "A", Op: "y", Body: &bpel.Empty{BlockName: "ey"}},
		}},
	}}}
	newView := branching("view", []string{"A#B#x"}, []string{"A#B#y"}, []string{"A#B#z"})
	plan, s := suggestSetup(t, partner, nil, newView, true)
	suggestions := s.Suggest(plan)
	if len(suggestions) != 1 {
		t.Fatalf("suggestions = %v", suggestions)
	}
	op, ok := suggestions[0].Op.(change.Composite)
	if !ok {
		t.Fatalf("op = %T, want Composite of AddPickBranch", suggestions[0].Op)
	}
	if len(op.Ops) != 1 {
		t.Fatalf("composite ops = %d", len(op.Ops))
	}
	add, ok := op.Ops[0].(change.AddPickBranch)
	if !ok || add.Branch.Op != "z" {
		t.Fatalf("op = %+v", op.Ops[0])
	}
	// Applying restores consistency.
	adapted, err := op.Apply(partner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.Derive(adapted, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := afsa.Consistent(newView, res.Automaton)
	if err != nil || !ok2 {
		t.Fatalf("still inconsistent after pick extension: %v", err)
	}
}

func TestSuggestSentAdditionWithSwitch(t *testing.T) {
	// Partner decides internally between sending x and y; the change
	// adds a third mandatory option z — suggest a new switch case.
	partner := &bpel.Process{Name: "p", Owner: "B", Body: &bpel.Sequence{BlockName: "root", Children: []bpel.Activity{
		&bpel.Switch{BlockName: "sw", Cases: []bpel.Case{
			{Cond: "c1", Body: &bpel.Invoke{BlockName: "ix", Partner: "A", Op: "x"}},
		}, Else: &bpel.Invoke{BlockName: "iy", Partner: "A", Op: "y"}},
	}}}
	// The new view mandates that B can also send z.
	newView := branching("view", []string{"B#A#x"}, []string{"B#A#y"}, []string{"B#A#z"})
	newView.Annotate(newView.Start(), And3("B#A#x", "B#A#y", "B#A#z"))
	plan, s := suggestSetup(t, partner, nil, newView, true)
	suggestions := s.Suggest(plan)
	if len(suggestions) != 1 {
		t.Fatalf("suggestions = %v", suggestions)
	}
	add, ok := suggestions[0].Op.(change.AddSwitchCase)
	if !ok {
		t.Fatalf("op = %T, want AddSwitchCase: %v", suggestions[0].Op, suggestions[0])
	}
	adapted, err := add.Apply(partner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.Derive(adapted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Automaton.Accepts([]label.Label{lbl("B#A#z")}) {
		t.Fatalf("adapted partner cannot send z:\n%s", res.Automaton.DebugString())
	}
}

func TestSuggestRemovedDeletesActivity(t *testing.T) {
	// No loop involved: the partner must simply stop choosing y.
	partner := &bpel.Process{Name: "p", Owner: "B", Body: &bpel.Sequence{BlockName: "root", Children: []bpel.Activity{
		&bpel.Switch{BlockName: "sw", Cases: []bpel.Case{
			{Cond: "c1", Body: &bpel.Invoke{BlockName: "ix", Partner: "A", Op: "x"}},
		}, Else: &bpel.Invoke{BlockName: "iy", Partner: "A", Op: "y"}},
	}}}
	newView := branching("view", []string{"B#A#x"}) // y no longer supported
	plan, s := suggestSetup(t, partner, nil, newView, false)
	suggestions := s.Suggest(plan)
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	del, ok := suggestions[0].Op.(change.Delete)
	if !ok {
		t.Fatalf("op = %T: %v", suggestions[0].Op, suggestions[0])
	}
	if !strings.Contains(del.Path.String(), "Invoke:iy") {
		t.Fatalf("delete path = %v", del.Path)
	}
}

func TestSuggestManualFallbackOnCycle(t *testing.T) {
	// The added continuation loops in B' — the synthesizer refuses and
	// the suggestion degrades to manual.
	partner := &bpel.Process{Name: "p", Owner: "B", Body: &bpel.Sequence{BlockName: "root", Children: []bpel.Activity{
		&bpel.Receive{BlockName: "rx", Partner: "A", Op: "x"},
	}}}
	// New view: x, or y followed by an unbounded y-loop.
	newView := afsa.New("view")
	q0 := newView.AddState()
	q1 := newView.AddState()
	q2 := newView.AddState()
	newView.SetStart(q0)
	newView.SetFinal(q1, true)
	newView.SetFinal(q2, true)
	newView.AddTransition(q0, lbl("A#B#x"), q1)
	newView.AddTransition(q0, lbl("A#B#y"), q2)
	newView.AddTransition(q2, lbl("A#B#y"), q2)
	plan, s := suggestSetup(t, partner, nil, newView, true)
	suggestions := s.Suggest(plan)
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	for _, sg := range suggestions {
		if sg.Op != nil {
			t.Fatalf("cycle should force a manual suggestion, got %v", sg)
		}
		if sg.String() == "" {
			t.Fatal("empty suggestion string")
		}
	}
}

func TestSuggestBudgetFallback(t *testing.T) {
	partner := &bpel.Process{Name: "p", Owner: "B", Body: &bpel.Sequence{BlockName: "root", Children: []bpel.Activity{
		&bpel.Receive{BlockName: "rx", Partner: "A", Op: "x"},
	}}}
	newView := branching("view", []string{"A#B#x"}, []string{"A#B#y", "A#B#y2", "A#B#y3"})
	plan, s := suggestSetup(t, partner, nil, newView, true)
	s.MaxSynthesized = 1 // absurdly small budget
	suggestions := s.Suggest(plan)
	for _, sg := range suggestions {
		if sg.Op != nil {
			t.Fatalf("budget exhaustion should force manual, got %v", sg)
		}
	}
}

func TestSuggestionStringForms(t *testing.T) {
	withOp := Suggestion{Description: "do it", Op: change.Delete{Path: bpel.Path{"x"}}}
	manual := Suggestion{Description: "think about it"}
	if !strings.Contains(withOp.String(), "do it") || strings.Contains(withOp.String(), "manual") {
		t.Fatalf("String = %q", withOp.String())
	}
	if !strings.Contains(manual.String(), "manual") {
		t.Fatalf("String = %q", manual.String())
	}
}

// And3 builds a three-variable conjunction.
func And3(a, b, c string) *formula.Formula {
	return formula.And(formula.Var(a), formula.Var(b), formula.Var(c))
}

func TestExecutableOps(t *testing.T) {
	del := change.Delete{Path: bpel.Path{"x"}}
	ops := ExecutableOps([]Suggestion{
		{Description: "manual only"},
		{Description: "auto", Op: del},
	})
	if len(ops) != 1 || ops[0].String() != del.String() {
		t.Fatalf("ops = %v", ops)
	}
	if ops := ExecutableOps(nil); ops != nil {
		t.Fatalf("no suggestions gave %v", ops)
	}
}
