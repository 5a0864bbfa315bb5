package afsa

import (
	"math/rand"
	"testing"

	"repro/internal/formula"
	"repro/internal/label"
)

func TestDeterminizePreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		a := randomNFA(r, 5)
		d := a.Determinize()
		if !d.Deterministic() {
			t.Fatalf("trial %d: Determinize output nondeterministic", trial)
		}
		for i := 0; i < 50; i++ {
			w := randomWord(r, 6)
			if a.Accepts(w) != d.Accepts(w) {
				t.Fatalf("trial %d: determinize changed acceptance of %v", trial, w)
			}
		}
	}
}

// randomNFA builds a random NFA with ε transitions.
func randomNFA(r *rand.Rand, states int) *Automaton {
	a := New("nfa")
	for i := 0; i < states; i++ {
		a.AddState()
	}
	a.SetStart(0)
	for q := 0; q < states; q++ {
		k := r.Intn(4)
		for i := 0; i < k; i++ {
			l := testAlphabet[r.Intn(len(testAlphabet))]
			a.AddTransition(StateID(q), l, StateID(r.Intn(states)))
		}
		if r.Intn(100) < 20 {
			a.AddTransition(StateID(q), label.Epsilon, StateID(r.Intn(states)))
		}
		if r.Intn(100) < 30 {
			a.SetFinal(StateID(q), true)
		}
	}
	return a
}

func TestRemoveEpsilonPreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		a := randomNFA(r, 5)
		e := a.RemoveEpsilon()
		if e.HasEpsilon() {
			t.Fatalf("trial %d: ε remains", trial)
		}
		for i := 0; i < 50; i++ {
			w := randomWord(r, 6)
			if a.Accepts(w) != e.Accepts(w) {
				t.Fatalf("trial %d: ε-removal changed acceptance of %v", trial, w)
			}
		}
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		a := randomNFA(r, 5)
		m := a.Minimize()
		for i := 0; i < 50; i++ {
			w := randomWord(r, 6)
			if a.Accepts(w) != m.Accepts(w) {
				t.Fatalf("trial %d: minimize changed acceptance of %v", trial, w)
			}
		}
	}
}

func TestMinimizeMergesEquivalentStates(t *testing.T) {
	// Two parallel branches accepting the same suffix merge.
	a := New("dup")
	q0 := a.AddState()
	q1 := a.AddState()
	q2 := a.AddState()
	q3 := a.AddState()
	a.SetStart(q0)
	a.SetFinal(q3, true)
	a.AddTransition(q0, lbl("A#B#x"), q1)
	a.AddTransition(q0, lbl("A#B#y"), q2)
	a.AddTransition(q1, lbl("A#B#z"), q3)
	a.AddTransition(q2, lbl("A#B#z"), q3)
	m := a.Minimize()
	if m.NumStates() != 3 {
		t.Fatalf("minimized to %d states, want 3 (q1,q2 merge):\n%s", m.NumStates(), m.DebugString())
	}
}

func TestMinimizeKeepsAnnotationDistinctStates(t *testing.T) {
	// Same language, different annotations: states must NOT merge,
	// because merging would change viability.
	a := New("annot")
	q0 := a.AddState()
	q1 := a.AddState()
	q2 := a.AddState()
	q3 := a.AddState()
	a.SetStart(q0)
	a.SetFinal(q3, true)
	a.AddTransition(q0, lbl("A#B#x"), q1)
	a.AddTransition(q0, lbl("A#B#y"), q2)
	a.AddTransition(q1, lbl("A#B#z"), q3)
	a.AddTransition(q2, lbl("A#B#z"), q3)
	a.Annotate(q1, formula.Var("A#B#z"))
	m := a.Minimize()
	if m.NumStates() != 4 {
		t.Fatalf("annotated states merged: %d states\n%s", m.NumStates(), m.DebugString())
	}
}

func TestMinimizePreservesViability(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		a := randomAnnotated(r, 5)
		e1, err1 := a.IsEmpty()
		m := a.Minimize()
		e2, err2 := m.IsEmpty()
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v %v", trial, err1, err2)
		}
		if e1 != e2 {
			t.Fatalf("trial %d: minimize changed emptiness %v -> %v\nbefore:\n%s\nafter:\n%s",
				trial, e1, e2, a.DebugString(), m.DebugString())
		}
	}
}

// randomAnnotated builds a random DFA with positive annotations drawn
// from outgoing labels (the shape the BPEL mapping produces).
func randomAnnotated(r *rand.Rand, states int) *Automaton {
	a := randomDFA(r, states)
	for q := 0; q < a.NumStates(); q++ {
		ts := a.Transitions(StateID(q))
		if len(ts) >= 2 && r.Intn(100) < 40 {
			a.Annotate(StateID(q), formula.And(
				formula.Var(string(ts[0].Label)),
				formula.Var(string(ts[1].Label))))
		}
	}
	return a
}

func TestCanonicalIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		a := randomNFA(r, 5)
		c1 := a.Minimize()
		c2 := c1.Minimize()
		if !identical(c1, c2) || ExplainDifference(c1, c2) != "" {
			t.Fatalf("trial %d: canonical form not idempotent", trial)
		}
	}
}

func TestEquivalentDetectsAnnotationDifference(t *testing.T) {
	a := chain("a", "B#A#x", "B#A#y")
	b := chain("b", "B#A#x", "B#A#y")
	if !Equivalent(a, b) {
		t.Fatal("identical chains not equivalent")
	}
	b.Annotate(b.Start(), formula.Var("B#A#x"))
	// The annotation is implied by the default (x is the only
	// outgoing label), but Equivalent compares explicit annotations.
	if Equivalent(a, b) {
		t.Fatal("explicit annotation difference not detected")
	}
}

func TestEquivalentDifferentLanguages(t *testing.T) {
	a := chain("a", "B#A#x")
	b := chain("b", "B#A#y")
	if Equivalent(a, b) {
		t.Fatal("different languages reported equivalent")
	}
	if SameLanguage(a, b) {
		t.Fatal("SameLanguage wrong")
	}
	if !SameLanguage(a, a.Clone()) {
		t.Fatal("SameLanguage(a,a) = false")
	}
}

func TestMinimizeWithMapTracksMembers(t *testing.T) {
	// chain of 2 with an extra equivalent middle state.
	a := New("m")
	q0 := a.AddState()
	q1 := a.AddState()
	q2 := a.AddState()
	q3 := a.AddState()
	a.SetStart(q0)
	a.SetFinal(q3, true)
	a.AddTransition(q0, lbl("A#B#x"), q1)
	a.AddTransition(q0, lbl("A#B#y"), q2)
	a.AddTransition(q1, lbl("A#B#z"), q3)
	a.AddTransition(q2, lbl("A#B#z"), q3)
	m, members := a.MinimizeWithMap()
	if m.NumStates() != 3 {
		t.Fatalf("states = %d", m.NumStates())
	}
	// The merged middle state must report both q1 and q2 as members.
	found := false
	for _, ms := range members {
		if len(ms) == 2 && ms[0] == q1 && ms[1] == q2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("members do not track the merge: %v", members)
	}
}

func TestAcceptedWordsShortlex(t *testing.T) {
	a := fig5A()
	words := a.AcceptedWords(3, 0)
	if len(words) != 2 {
		t.Fatalf("words = %v", words)
	}
	if len(words[0]) != 1 || len(words[1]) != 1 {
		t.Fatalf("unexpected word lengths: %v", words)
	}
}

func TestAcceptedWordsLimit(t *testing.T) {
	a := New("loop")
	q := a.AddState()
	a.SetStart(q)
	a.SetFinal(q, true)
	a.AddTransition(q, lbl("A#B#x"), q)
	words := a.AcceptedWords(50, 5)
	if len(words) != 5 {
		t.Fatalf("limit not applied: %d words", len(words))
	}
}

func TestViableWordsExcludeNonViablePaths(t *testing.T) {
	inter := fig5A().Intersect(fig5B())
	words, err := inter.ViableWords(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 0 {
		t.Fatalf("annotated-empty automaton yielded viable words: %v", words)
	}
	// Without the annotation the msg2 word appears.
	a, b := fig5A(), fig5B()
	b.ClearAnnotations(b.Start())
	words, err = a.Intersect(b).ViableWords(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 1 {
		t.Fatalf("viable words = %v, want one", words)
	}
}
