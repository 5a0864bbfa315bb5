package afsa

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/label"
)

// alignedTo returns b itself when it already uses in, otherwise a copy
// of b reinterned into in. Binary operators align their operands so
// the product kernels compare symbols, never label strings; operands
// that already share an interner (the per-choreography case) align for
// free.
func alignedTo(b *Automaton, in *label.Interner) *Automaton {
	if b.syms == in {
		return b
	}
	return b.CloneInto(in)
}

// Complete returns a copy in which every state has an outgoing
// transition for every label in alphabet, adding a non-final sink
// state when needed (Def. 4 requires complete automata). The second
// result is the sink's state ID, or None when no sink was necessary.
// The sink carries no annotation; it is never viable.
func (a *Automaton) Complete(alphabet label.Set) (*Automaton, StateID) {
	out := a.Clone()
	labels := alphabet.Sorted()
	syms := make([]label.Symbol, len(labels))
	for i, l := range labels {
		syms[i] = out.syms.Intern(l)
	}
	sink := None
	ensureSink := func() StateID {
		if sink == None {
			sink = out.AddState()
			for _, s := range syms {
				out.addEdge(sink, s, sink)
			}
		}
		return sink
	}
	// have is a symbol-indexed presence array shared across states;
	// the per-state mark value makes resets free.
	have := make([]int32, out.syms.Len())
	n := out.NumStates() // do not complete the sink twice
	for q := 0; q < n; q++ {
		mark := int32(q) + 1
		for _, e := range out.trans[q] {
			have[e.sym] = mark
		}
		for _, s := range syms {
			if have[s] != mark {
				out.addEdge(StateID(q), s, ensureSink())
			}
		}
	}
	return out, sink
}

// Complement returns an automaton accepting the complement of L(a)
// with respect to alphabet. Annotations are dropped: the complement of
// a *language* is well-defined, the complement of a mandatory-message
// constraint is not (see DESIGN.md §3); the paper uses complement only
// as a building block for union over languages.
func (a *Automaton) Complement(alphabet label.Set) *Automaton {
	d := a.Determinize()
	for q := range d.anno {
		d.anno[q] = nil
	}
	c, _ := d.Complete(alphabet)
	for q := 0; q < c.NumStates(); q++ {
		c.final[q] = !c.final[q]
	}
	c.Name = "not(" + a.Name + ")"
	return c
}

// pairKey identifies a product state.
type pairKey struct{ p, q StateID }

// productConfig controls the shared product construction.
type productConfig struct {
	name string
	// finalRule decides finality of a pair from the component
	// finality bits.
	finalRule func(f1, f2 bool) bool
	// annoRule selects which components' annotations the pair
	// inherits: 1 = left only, 2 = right only, 3 = both.
	annoRule int
}

// product builds the synchronous product of two ε-free automata: pair
// (p,q) steps on label l to (p',q') iff both components have an
// l-transition. It is the common core of intersection, difference and
// union (the latter two complete their inputs first so that the
// synchronous product covers the full alphabet).
//
// The kernel merge-joins the two components' edge lists, pre-sorted
// by symbol rank and memoized per state, so each visited pair costs
// one linear scan — no per-pair label maps, no string comparisons.
func product(a, b *Automaton, cfg productConfig) *Automaton {
	b = alignedTo(b, a.syms)
	out := NewShared(cfg.name, a.syms)
	if a.start == None || b.start == None {
		return out
	}
	out.reserveStates(max(a.NumStates(), b.NumStates()))
	ranks := a.labelRanks()

	// Edge lists sorted by (label rank, target), memoized per state:
	// product states revisit component states many times.
	aEdges := make([][]edge, a.NumStates())
	bEdges := make([][]edge, b.NumStates())
	sortedOf := func(src *Automaton, cache [][]edge, q StateID) []edge {
		es := cache[q]
		if es == nil {
			es = make([]edge, len(src.trans[q]))
			copy(es, src.trans[q])
			sortEdges(es, ranks)
			cache[q] = es
		}
		return es
	}

	index := map[pairKey]StateID{}
	var worklist []pairKey
	add := func(k pairKey) StateID {
		if id, ok := index[k]; ok {
			return id
		}
		id := out.AddState()
		index[k] = id
		out.final[id] = cfg.finalRule(a.final[k.p], b.final[k.q])
		if cfg.annoRule&1 != 0 {
			for _, f := range a.anno[k.p] {
				out.Annotate(id, f)
			}
		}
		if cfg.annoRule&2 != 0 {
			for _, f := range b.anno[k.q] {
				out.Annotate(id, f)
			}
		}
		worklist = append(worklist, k)
		return id
	}
	out.SetStart(add(pairKey{a.start, b.start}))
	for head := 0; head < len(worklist); head++ {
		k := worklist[head]
		from := index[k]
		ea := sortedOf(a, aEdges, k.p)
		eb := sortedOf(b, bEdges, k.q)
		i, j := 0, 0
		for i < len(ea) && j < len(eb) {
			ri, rj := ranks[ea[i].sym], ranks[eb[j].sym]
			if ri < rj {
				i++
				continue
			}
			if rj < ri {
				j++
				continue
			}
			sym := ea[i].sym
			i2 := i
			for i2 < len(ea) && ea[i2].sym == sym {
				i2++
			}
			j2 := j
			for j2 < len(eb) && eb[j2].sym == sym {
				j2++
			}
			for x := i; x < i2; x++ {
				for y := j; y < j2; y++ {
					to := add(pairKey{ea[x].to, eb[y].to})
					out.addEdge(from, sym, to)
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

// Intersect implements Def. 3: the cross-product automaton over the
// shared alphabet whose pair states conjoin the component annotations.
// ε transitions are removed first (views produce them). The result
// accepts L(a) ∩ L(b); its annotated emptiness decides bilateral
// consistency (Sec. 3.2).
func (a *Automaton) Intersect(b *Automaton) *Automaton {
	ea, eb := a.epsFree(), b.epsFree()
	return product(ea, eb, productConfig{
		name:      fmt.Sprintf("(%s ∩ %s)", a.Name, b.Name),
		finalRule: func(f1, f2 bool) bool { return f1 && f2 },
		annoRule:  3,
	})
}

// Difference implements Def. 4: an automaton accepting L(a) \ L(b)
// whose annotations are inherited from a (the paper's QA1). b is
// determinized and completed over Σa ∪ Σb so that F = F1 × (Q2 \ F2)
// characterizes exactly the words of a not accepted by b.
func (a *Automaton) Difference(b *Automaton) *Automaton {
	ea := a.epsFree()
	db := b.Determinize()
	sigma := ea.Alphabet().Union(db.Alphabet())
	cb, _ := db.Complete(sigma)
	out := product(ea, cb, productConfig{
		name:      fmt.Sprintf("(%s \\ %s)", a.Name, b.Name),
		finalRule: func(f1, f2 bool) bool { return f1 && !f2 },
		annoRule:  1,
	})
	trimmed, _ := out.TrimCoReachable()
	trimmed.Name = out.Name
	return trimmed
}

// Union returns an automaton accepting L(a) ∪ L(b). Both inputs are
// determinized and completed over the union alphabet; pair states
// conjoin the component annotations (a completion sink carries none,
// so the annotations of the surviving branch win — DESIGN.md §3).
// The paper constructs union via De Morgan from complement and
// intersection; see UnionDeMorgan for that language-level form.
func (a *Automaton) Union(b *Automaton) *Automaton {
	da, db := a.Determinize(), b.Determinize()
	sigma := da.Alphabet().Union(db.Alphabet())
	ca, _ := da.Complete(sigma)
	cb, _ := db.Complete(sigma)
	out := product(ca, cb, productConfig{
		name:      fmt.Sprintf("(%s ∪ %s)", a.Name, b.Name),
		finalRule: func(f1, f2 bool) bool { return f1 || f2 },
		annoRule:  3,
	})
	trimmed, _ := out.TrimCoReachable()
	trimmed.Name = out.Name
	return trimmed
}

// UnionDeMorgan builds the union of the *languages* of a and b as the
// paper describes (A ∪ B ≡ complement(complement(A) ∩ complement(B))).
// Annotations are dropped by complementation; use Union to preserve
// them.
func (a *Automaton) UnionDeMorgan(b *Automaton) *Automaton {
	sigma := a.Alphabet().Union(b.Alphabet())
	u := a.Complement(sigma).Intersect(b.Complement(sigma)).Complement(sigma)
	out, _ := u.TrimCoReachable()
	out.Name = fmt.Sprintf("(%s ∪ %s)", a.Name, b.Name)
	return out
}

// Shuffle returns the interleaving product of two ε-free automata:
// pair (p,q) can take any move of either component independently.
// Finality requires both components final; annotations conjoin. The
// BPEL mapping uses Shuffle for the parallel <flow> construct.
func (a *Automaton) Shuffle(b *Automaton) *Automaton {
	ea, eb := a.epsFree(), b.epsFree()
	eb = alignedTo(eb, ea.syms)
	out := NewShared(fmt.Sprintf("(%s ⧢ %s)", a.Name, b.Name), ea.syms)
	if ea.start == None || eb.start == None {
		return out
	}
	ranks := ea.labelRanks()
	index := map[pairKey]StateID{}
	var worklist []pairKey
	add := func(k pairKey) StateID {
		if id, ok := index[k]; ok {
			return id
		}
		id := out.AddState()
		index[k] = id
		out.final[id] = ea.final[k.p] && eb.final[k.q]
		for _, f := range ea.anno[k.p] {
			out.Annotate(id, f)
		}
		for _, f := range eb.anno[k.q] {
			out.Annotate(id, f)
		}
		worklist = append(worklist, k)
		return id
	}
	// Sorted edge lists memoized per component state, as in product:
	// a component state is revisited once per pair it appears in.
	aEdges := make([][]edge, ea.NumStates())
	bEdges := make([][]edge, eb.NumStates())
	sortedOf := func(src *Automaton, cache [][]edge, q StateID) []edge {
		es := cache[q]
		if es == nil {
			es = make([]edge, len(src.trans[q]))
			copy(es, src.trans[q])
			sortEdges(es, ranks)
			cache[q] = es
		}
		return es
	}
	out.SetStart(add(pairKey{ea.start, eb.start}))
	for head := 0; head < len(worklist); head++ {
		k := worklist[head]
		from := index[k]
		for _, e := range sortedOf(ea, aEdges, k.p) {
			out.addEdgeUnique(from, e.sym, add(pairKey{e.to, k.q}))
		}
		for _, e := range sortedOf(eb, bEdges, k.q) {
			out.addEdgeUnique(from, e.sym, add(pairKey{k.p, e.to}))
		}
	}
	return out
}

// Concat returns an automaton accepting L(a)·L(b): every final state
// of a gains an ε transition to b's start state and loses finality.
// Used by the change suggestion engine to splice message sequences.
func (a *Automaton) Concat(b *Automaton) *Automaton {
	out := a.Clone()
	out.Name = fmt.Sprintf("(%s · %s)", a.Name, b.Name)
	bb := alignedTo(b, out.syms)
	offset := out.NumStates()
	out.AddStates(bb.NumStates())
	for q := 0; q < bb.NumStates(); q++ {
		nq := StateID(q + offset)
		out.final[nq] = bb.final[q]
		out.anno[nq] = append([]*formula.Formula(nil), bb.anno[q]...)
		for _, e := range bb.trans[q] {
			out.addEdgeUnique(nq, e.sym, e.to+StateID(offset))
		}
	}
	for q := 0; q < offset; q++ {
		if out.final[q] && a.final[q] {
			out.final[q] = false
			out.addEdgeUnique(StateID(q), label.SymEpsilon, bb.start+StateID(offset))
		}
	}
	return out.RemoveEpsilon()
}
