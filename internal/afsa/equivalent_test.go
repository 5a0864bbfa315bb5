package afsa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/formula"
	"repro/internal/label"
)

// Properties of the minimal-is-canonical contract: Minimize numbers its
// output canonically and marks it, Equivalent compares marked operands
// as they are, and the text-free predicate agrees with both
// ExplainDifference and the canonicalize-both-and-compare reference.

// refRenumber is a separate canonical-renumbering pass over a
// minimized automaton: states renumbered in BFS order (transitions
// explored in label order), then copied. Minimize output must already
// be in this order.
func refRenumber(m *Automaton) *Automaton {
	order := bfsOrder(m)
	remap := make([]StateID, m.NumStates())
	for i, q := range order {
		remap[q] = StateID(i)
	}
	out := NewShared(m.Name, m.syms)
	out.AddStates(m.NumStates())
	if m.NumStates() == 0 {
		return out
	}
	out.SetStart(remap[m.start])
	for q := 0; q < m.NumStates(); q++ {
		nq := remap[q]
		out.final[nq] = m.final[q]
		for _, f := range m.anno[q] {
			out.Annotate(nq, f)
		}
		for _, e := range m.trans[q] {
			out.addEdgeUnique(nq, e.sym, remap[e.to])
		}
	}
	return out
}

// refEquivalent is canonicalize-both-and-compare: minimize and
// renumber both sides, then compare them state by state through their
// label-sorted transition lists.
func refEquivalent(a, b *Automaton) bool {
	ca, cb := refRenumber(a.Minimize()), refRenumber(b.Minimize())
	if ca.NumStates() != cb.NumStates() {
		return false
	}
	if ca.NumStates() == 0 {
		return true
	}
	if ca.start != cb.start {
		return false
	}
	for q := 0; q < ca.NumStates(); q++ {
		if ca.final[q] != cb.final[q] {
			return false
		}
		ta, tb := ca.Transitions(StateID(q)), cb.Transitions(StateID(q))
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
		}
		if !annotationsEqual(ca, cb, StateID(q)) {
			return false
		}
	}
	return true
}

// identical reports whether a and b have the same structure: state
// count, start, finality, annotation lists and edge lists, in order,
// with edges compared by label.
func identical(a, b *Automaton) bool {
	if a.NumStates() != b.NumStates() || a.start != b.start {
		return false
	}
	la, lb := a.syms.Labels(), b.syms.Labels()
	for q := range a.trans {
		if a.final[q] != b.final[q] || len(a.trans[q]) != len(b.trans[q]) || len(a.anno[q]) != len(b.anno[q]) {
			return false
		}
		for i, e := range a.trans[q] {
			if f := b.trans[q][i]; e.to != f.to || la[e.sym] != lb[f.sym] {
				return false
			}
		}
		for i, f := range a.anno[q] {
			if f.String() != b.anno[q][i].String() {
				return false
			}
		}
	}
	return true
}

// generators are the seeded automaton shapes the properties range
// over: annotated NFAs with ε, plain NFAs, trim DFAs and DFAs
// annotated from their outgoing labels.
var generators = []struct {
	name string
	gen  func(seed int64) *Automaton
}{
	{"annotatedNFA", func(s int64) *Automaton { return annotatedNFA(s, int(s%7)) }},
	{"randomNFA", func(s int64) *Automaton { return randomNFA(rand.New(rand.NewSource(s)), 5) }},
	{"randomDFA", func(s int64) *Automaton { return dfaFromSeed(s, 5) }},
	{"randomAnnotated", func(s int64) *Automaton { return randomAnnotated(rand.New(rand.NewSource(s)), 5) }},
}

// reinterned returns a copy of a on a fresh interner that interns the
// labels in reverse order, so its symbol values (and edge order by
// symbol) differ from a's while the labels stay the same.
func reinterned(a *Automaton) *Automaton {
	in := label.NewInterner()
	labels := a.syms.Labels()
	for s := len(labels) - 1; s > 0; s-- {
		in.Intern(labels[s])
	}
	c := a.Clone()
	c.Reintern(in)
	return c
}

// Minimize output is marked and already in canonical numbering: a
// separate renumbering pass is the identity on it, and minimizing
// again reproduces it exactly.
func TestQuickMinimizeIsCanonical(t *testing.T) {
	for _, g := range generators {
		f := func(s int64) bool {
			a := g.gen(s)
			m := a.Minimize()
			if !m.IsMinimal() {
				t.Logf("%s seed %d: Minimize output not marked", g.name, s)
				return false
			}
			if !identical(m, refRenumber(m)) {
				t.Logf("%s seed %d: BFS renumbering moved states of\n%s", g.name, s, m.DebugString())
				return false
			}
			if !identical(m, m.Minimize()) {
				t.Logf("%s seed %d: minimize not idempotent on\n%s", g.name, s, m.DebugString())
				return false
			}
			return true
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}

// equivalencePairs returns operand pairs for one seed: unrelated
// automata, and equivalent ones in other shapes — a state-permuted
// copy, the determinized and minimized forms, a minimized form on a
// different interner — each also against a mutated copy.
func equivalencePairs(gen func(int64) *Automaton, s1, s2 int64) [][2]*Automaton {
	a, b := gen(s1), gen(s2)
	m := a.Minimize()
	pairs := [][2]*Automaton{
		{a, b},
		{m, b.Minimize()},
		{a, permuteStates(a, s2)},
		{m, permuteStates(a, s2)},
		{a, a.Determinize()},
		{m, reinterned(m)},
		{reinterned(m), permuteStates(b, s1)},
	}
	if m.NumStates() > 0 {
		flipped := permuteStates(a, s1)
		q := StateID(uint64(s2) % uint64(flipped.NumStates()))
		flipped.SetFinal(q, !flipped.IsFinal(q))
		pairs = append(pairs, [2]*Automaton{m, flipped})
	}
	return pairs
}

// Equivalent is exactly "ExplainDifference finds nothing".
func TestQuickEquivalentMatchesExplain(t *testing.T) {
	for _, g := range generators {
		f := func(s1, s2 int64) bool {
			for i, p := range equivalencePairs(g.gen, s1, s2) {
				eq, why := Equivalent(p[0], p[1]), ExplainDifference(p[0], p[1])
				if eq != (why == "") {
					t.Logf("%s seeds %d/%d pair %d: Equivalent=%v, ExplainDifference=%q", g.name, s1, s2, i, eq, why)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}

// Equivalent agrees with canonicalize-both-and-compare, on marked and
// unmarked operands, permuted copies and cross-interner pairs.
func TestQuickEquivalentMatchesReference(t *testing.T) {
	for _, g := range generators {
		var equal, differ int
		f := func(s1, s2 int64) bool {
			for i, p := range equivalencePairs(g.gen, s1, s2) {
				got, want := Equivalent(p[0], p[1]), refEquivalent(p[0], p[1])
				if got != want {
					t.Logf("%s seeds %d/%d pair %d: Equivalent=%v, reference=%v\nA:\n%s\nB:\n%s",
						g.name, s1, s2, i, got, want, p[0].DebugString(), p[1].DebugString())
					return false
				}
				if got {
					equal++
				} else {
					differ++
				}
			}
			return true
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
		if equal == 0 || differ == 0 {
			t.Errorf("%s: vacuous run: %d equivalent and %d different pairs", g.name, equal, differ)
		}
	}
}

// Every mutator clears the mark, so Equivalent re-minimizes a mutated
// automaton instead of trusting its stale structure: it reports the
// changes that alter language or annotations, and still equates an
// automaton that merely gained an unreachable state.
func TestMinimalMarkClearedByMutation(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		orig := randomAnnotated(rand.New(rand.NewSource(trial)), 5).Minimize()
		if !orig.IsMinimal() {
			t.Fatalf("trial %d: Minimize output not marked", trial)
		}
		fresh := lbl("Z#Y#fresh")
		for _, m := range []struct {
			name    string
			mutate  func(c *Automaton)
			changes bool
		}{
			{"AddTransition", func(c *Automaton) { c.AddTransition(c.Start(), fresh, c.Start()) }, true},
			{"SetFinal", func(c *Automaton) { c.SetFinal(c.Start(), !c.IsFinal(c.Start())) }, true},
			{"Annotate", func(c *Automaton) { c.Annotate(c.Start(), formula.Var(string(fresh))) }, true},
			{"AddState", func(c *Automaton) { c.AddState() }, false},
			{"AddStates", func(c *Automaton) { c.AddStates(2) }, false},
		} {
			c := orig.Clone()
			if c.IsMinimal() {
				t.Fatalf("trial %d: Clone copied the mark", trial)
			}
			c = orig.Minimize()
			m.mutate(c)
			if c.IsMinimal() {
				t.Fatalf("trial %d: %s kept the mark", trial, m.name)
			}
			if got := Equivalent(orig, c); got == m.changes {
				t.Fatalf("trial %d: after %s, Equivalent = %v, want %v (%s)", trial, m.name, got, !m.changes, ExplainDifference(orig, c))
			}
		}
		c := orig.Minimize()
		c.Reintern(label.NewInterner())
		if !c.IsMinimal() || !Equivalent(orig, c) {
			t.Fatalf("trial %d: Reintern dropped the mark or changed the language", trial)
		}
		// CloneInto keeps the mark, and truthfully: the copy matches
		// the minimization of an unmarked clone of itself.
		c = orig.CloneInto(label.NewInterner())
		if !c.IsMinimal() || !Equivalent(orig, c) {
			t.Fatalf("trial %d: CloneInto dropped the mark or changed the language", trial)
		}
		if d := ExplainDifference(c, c.Clone()); d != "" {
			t.Fatalf("trial %d: CloneInto copy is not its own minimal form: %s", trial, d)
		}
	}
}
