// Benchmark harness regenerating every constructed table and figure of
// the paper (E-* experiments of DESIGN.md) and measuring the derived
// scaling experiments (D-*). Absolute numbers depend on the host; the
// shapes — which operator dominates, how costs scale, who wins between
// the matching strategies and between centralized and decentralized
// checking — are what EXPERIMENTS.md records.
package choreo

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/core"
	"repro/internal/decentral"
	"repro/internal/discovery"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
)

// ---- E-F5: Fig. 5 intersection + annotated emptiness ----

func BenchmarkFig5Intersection(b *testing.B) {
	pa, pb := paperrepro.Fig5PartyA(), paperrepro.Fig5PartyB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inter := pa.Intersect(pb)
		empty, err := inter.IsEmpty()
		if err != nil || !empty {
			b.Fatalf("fig5: empty=%v err=%v", empty, err)
		}
	}
}

// ---- E-F6 / E-T1: buyer public process generation + mapping table ----

func BenchmarkFig6BuyerPublic(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.BuyerProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mapping.Derive(p, reg)
		if err != nil || res.Automaton.NumStates() != 5 {
			b.Fatalf("fig6: %v", err)
		}
	}
}

func BenchmarkTable1Mapping(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.BuyerProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mapping.Derive(p, reg)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Table.Blocks(2); len(got) != 5 {
			b.Fatalf("table1 row 3 = %v", got)
		}
	}
}

// ---- E-F7 / E-F2: accounting public process ----

func BenchmarkFig7AccountingPublic(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.AccountingProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Derive(p, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-F8: bilateral views ----

func BenchmarkFig8Views(b *testing.B) {
	reg := paperrepro.Registry()
	res, err := mapping.Derive(paperrepro.AccountingProcess(), reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := res.Automaton.View(paperrepro.Buyer); v.NumStates() != 5 {
			b.Fatalf("fig8a states = %d", v.NumStates())
		}
		if v := res.Automaton.View(paperrepro.Logistics); v.NumStates() != 5 {
			b.Fatalf("fig8b states = %d", v.NumStates())
		}
	}
}

// ---- E-F1: whole-scenario consistency ----

// BenchmarkScenarioConsistency checks the paper scenario without a
// store (so no view memo and no result cache): pair discovery from the
// alphabets, then views + Consistent per interacting pair.
func BenchmarkScenarioConsistency(b *testing.B) {
	reg := PaperRegistry()
	publics := map[string]*Automaton{}
	var order []string
	for _, p := range []*Process{PaperBuyer(), PaperAccounting(), PaperLogistics()} {
		res, err := DerivePublic(p, reg)
		if err != nil {
			b.Fatal(err)
		}
		publics[p.Owner] = res.Automaton
		order = append(order, p.Owner)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checkPublics(order, publics)
		if err != nil || !rep.Consistent() {
			b.Fatalf("scenario: %v", err)
		}
	}
}

// checkPublics reports bilateral consistency of every interacting pair
// of publics, parties taken in order.
func checkPublics(order []string, publics map[string]*Automaton) (*store.CheckReport, error) {
	var pairs [][2]string
	for i, a := range order {
		for _, b := range order[i+1:] {
			if interacts(publics[a], a, b) || interacts(publics[b], a, b) {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	rep := &store.CheckReport{}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		ok, err := Consistent(publics[a].View(b), publics[b].View(a))
		if err != nil {
			return nil, err
		}
		rep.Pairs = append(rep.Pairs, store.PairResult{A: a, B: b, Consistent: ok})
	}
	return rep, nil
}

// interacts reports whether pub sends or receives a message between a
// and b.
func interacts(pub *Automaton, a, b string) bool {
	for l := range pub.Alphabet() {
		if l.Between(a, b) {
			return true
		}
	}
	return false
}

// ---- E-F10: invariant additive change ----

func BenchmarkFig10InvariantAdditive(b *testing.B) {
	benchEvolve(b, PaperOrderTwoChange(), false)
}

// benchEvolve times the store's analysis of op on the paper
// scenario's accounting party.
func benchEvolve(b *testing.B, op ChangeOperation, wantPropagation bool) {
	st, err := PaperScenario()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evo, err := st.Evolve(benchCtx, PaperChoreography, paperrepro.Accounting, op)
		if err != nil || evo.NeedsPropagation() != wantPropagation {
			b.Fatalf("evolve %s: err=%v", op, err)
		}
	}
}

// ---- E-F12/E-F13: variant additive change + propagation ----

func BenchmarkFig12VariantAdditive(b *testing.B) {
	benchEvolve(b, PaperCancelChange(), true)
}

func BenchmarkFig13AdditivePropagation(b *testing.B) {
	evo, snap := paperEvolution(b, PaperCancelChange())
	im, _ := evo.Impact(paperrepro.Buyer)
	buyer, _ := snap.Party(paperrepro.Buyer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.PlanAdditive(im.NewView, buyer.Public, buyer.Table)
		if err != nil || len(plan.Hints) != 1 {
			b.Fatalf("fig13: %v", err)
		}
	}
}

// ---- E-F14: suggestion + application + verification ----

func BenchmarkFig14SuggestApply(b *testing.B) {
	benchSuggestApply(b, PaperCancelChange())
}

// benchSuggestApply times steps 4–5 of the buyer's propagation for op
// without committing: apply the executable suggestions to the buyer,
// re-derive it and verify consistency with the changed accounting.
func benchSuggestApply(b *testing.B, op ChangeOperation) {
	evo, snap := paperEvolution(b, op)
	im, _ := evo.Impact(paperrepro.Buyer)
	buyer, _ := snap.Party(paperrepro.Buyer)
	adapt := Composite{Ops: ExecutableSuggestions(im.Suggestions)}
	reg := PaperRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := adapt.Apply(buyer.Private)
		if err != nil {
			b.Fatal(err)
		}
		res, err := DerivePublic(p, reg)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := Consistent(im.NewView, res.Automaton.View(paperrepro.Accounting))
		if err != nil || !ok {
			b.Fatalf("suggestion verification failed: %v", err)
		}
	}
}

// ---- E-F16/E-F17: variant subtractive change + propagation ----

func BenchmarkFig16VariantSubtractive(b *testing.B) {
	benchEvolve(b, PaperTrackingLimitChange(), true)
}

func BenchmarkFig17SubtractivePropagation(b *testing.B) {
	evo, snap := paperEvolution(b, PaperTrackingLimitChange())
	im, _ := evo.Impact(paperrepro.Buyer)
	buyer, _ := snap.Party(paperrepro.Buyer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.PlanSubtractive(im.NewView, buyer.Public, buyer.Table)
		if err != nil || len(plan.Hints) == 0 {
			b.Fatalf("fig17: %v", err)
		}
	}
}

// ---- E-F18: subtractive suggestion + application + verification ----

func BenchmarkFig18SuggestApply(b *testing.B) {
	benchSuggestApply(b, PaperTrackingLimitChange())
}

// ---- D-1: operator cost vs. automaton size ----

// randomDFA builds a trim random DFA with the given state count over a
// 6-letter alphabet.
func randomDFA(seed int64, states int) *afsa.Automaton {
	r := rand.New(rand.NewSource(seed))
	alphabet := []label.Label{
		label.New("A", "B", "m0"), label.New("A", "B", "m1"), label.New("A", "B", "m2"),
		label.New("B", "A", "m3"), label.New("B", "A", "m4"), label.New("B", "A", "m5"),
	}
	a := afsa.New(fmt.Sprintf("rand%d", states))
	for i := 0; i < states; i++ {
		a.AddState()
	}
	a.SetStart(0)
	for q := 0; q < states; q++ {
		for _, l := range alphabet {
			if r.Intn(100) < 60 {
				a.AddTransition(afsa.StateID(q), l, afsa.StateID(r.Intn(states)))
			}
		}
		if r.Intn(100) < 25 {
			a.SetFinal(afsa.StateID(q), true)
		}
	}
	a.SetFinal(afsa.StateID(states-1), true)
	trimmed, _ := a.Trim()
	return trimmed
}

var operatorSizes = []int{8, 32, 128, 512}

// operandPair returns an automaton and a structural variant of it (a
// few transitions retargeted, some finality flipped), so products at
// every size share substantial structure — two independently random
// automata of growing size share almost nothing, which would make the
// scaling series degenerate.
func operandPair(n int) (*afsa.Automaton, *afsa.Automaton) {
	x := randomDFA(int64(n), n)
	y := x.Clone()
	r := rand.New(rand.NewSource(int64(n) * 31))
	states := y.NumStates()
	extras := []label.Label{
		label.New("A", "B", "x0"), label.New("A", "B", "x1"),
		label.New("B", "A", "x2"), label.New("B", "A", "x3"),
	}
	for i := 0; i < states/4+1; i++ {
		q := afsa.StateID(r.Intn(states))
		y.SetFinal(q, !y.IsFinal(q))
		l := extras[r.Intn(len(extras))]
		// Keep y deterministic: add the variant transition only when
		// the state lacks that label.
		if len(y.Step(q, l)) == 0 {
			y.AddTransition(q, l, afsa.StateID(r.Intn(states)))
		}
	}
	return x, y
}

func BenchmarkIntersectScale(b *testing.B) {
	for _, n := range operatorSizes {
		x, y := operandPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inter := x.Intersect(y)
				b.ReportMetric(float64(inter.NumStates()), "product-states")
			}
		})
	}
}

func BenchmarkEmptinessScale(b *testing.B) {
	for _, n := range operatorSizes {
		x := randomDFA(int64(n), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := x.IsEmpty(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDifferenceScale(b *testing.B) {
	for _, n := range operatorSizes {
		x, y := operandPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.Difference(y)
			}
		})
	}
}

func BenchmarkUnionScale(b *testing.B) {
	for _, n := range operatorSizes {
		x, y := operandPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.Union(y)
			}
		})
	}
}

func BenchmarkMinimizeScale(b *testing.B) {
	for _, n := range operatorSizes {
		x := randomDFA(int64(n), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.Minimize()
			}
		})
	}
}

// ---- D-2: public process generation vs. process size ----

func BenchmarkDeriveScale(b *testing.B) {
	for _, msgs := range []int{8, 32, 128} {
		conv := gen.MustGenerate(int64(msgs), gen.Params{
			PartyA: "A", PartyB: "B", Messages: msgs, MaxDepth: 3, ChoiceProb: 25, MaxBranch: 3,
		})
		b.Run(fmt.Sprintf("msgs=%d", msgs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mapping.Derive(conv.A, conv.Registry)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Automaton.NumStates()), "states")
			}
		})
	}
}

// ---- D-3: full propagation pipeline vs. process size ----

func BenchmarkPropagateScale(b *testing.B) {
	for _, msgs := range []int{8, 32, 128} {
		conv := gen.MustGenerate(int64(msgs)+100, gen.Params{
			PartyA: "A", PartyB: "B", Messages: msgs, MaxDepth: 3, ChoiceProb: 25, MaxBranch: 3,
		})
		st := store.New()
		if err := st.Create(benchCtx, "conv", nil); err != nil {
			b.Fatal(err)
		}
		if _, err := st.PutParties(benchCtx, "conv", []*Process{conv.A, conv.B}, nil); err != nil {
			b.Fatal(err)
		}
		// A deterministic variant change: delete the first receive of A
		// (B keeps sending it → variant for B).
		var target Path
		Walk(conv.A.Body, func(a Activity, path Path) bool {
			if target != nil {
				return false
			}
			if _, ok := a.(*Receive); ok {
				target = append(Path(nil), path...)
				return false
			}
			return true
		})
		if target == nil {
			b.Skip("generated process has no receive")
		}
		op := Delete{Path: target}
		b.Run(fmt.Sprintf("msgs=%d", msgs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Evolve(benchCtx, "conv", "A", op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- D-4: controlled vs. uncontrolled evolution ----

func BenchmarkControlledVsUncontrolled(b *testing.B) {
	reg := paperrepro.Registry()
	changedAcc, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		b.Fatal(err)
	}
	acc, _ := mapping.Derive(changedAcc, reg)
	buyerOld, _ := mapping.Derive(paperrepro.BuyerProcess(), reg)
	buyerNew, _ := mapping.Derive(paperrepro.Fig14BuyerProcess(), reg)
	logistics, _ := mapping.Derive(paperrepro.LogisticsProcess(), reg)

	build := func(buyer *afsa.Automaton) *runtime.System {
		sys, err := runtime.NewSystem(map[string]*afsa.Automaton{
			paperrepro.Buyer:      buyer,
			paperrepro.Accounting: acc.Automaton,
			paperrepro.Logistics:  logistics.Automaton,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}

	b.Run("uncontrolled", func(b *testing.B) {
		sys := build(buyerOld.Automaton)
		for i := 0; i < b.N; i++ {
			rate := sys.FailureRate(int64(i), 100, 200)
			if rate == 0 {
				b.Fatal("uncontrolled evolution never failed")
			}
			b.ReportMetric(rate*100, "%failed")
		}
	})
	b.Run("controlled", func(b *testing.B) {
		sys := build(buyerNew.Automaton)
		for i := 0; i < b.N; i++ {
			rate := sys.FailureRate(int64(i), 100, 200)
			if rate != 0 {
				b.Fatal("controlled evolution failed")
			}
			b.ReportMetric(0, "%failed")
		}
	})
}

// ---- D-5: discovery matchmaking vs. overlap baseline ----

func discoveryWorkload(b *testing.B, services int) (*discovery.Registry, *afsa.Automaton, map[string]bool) {
	b.Helper()
	reg := discovery.NewRegistry()
	truth := map[string]bool{}
	query := randomDFA(4242, 12)
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%d", i)
		var pub *afsa.Automaton
		if i%2 == 0 {
			pub = query.Clone() // compatible by construction
		} else {
			// Same vocabulary, incompatible protocol: mandate a
			// message the query cannot follow at the start.
			pub = randomDFA(int64(i), 10)
			q := pub.Start()
			ghost := label.New("B", "A", "ghost")
			g := pub.AddState()
			pub.SetFinal(g, true)
			pub.AddTransition(q, ghost, g)
			pub.Annotate(q, Var(string(ghost)))
		}
		if err := reg.Publish(name, pub); err != nil {
			b.Fatal(err)
		}
		ok, err := afsa.Consistent(query, pub)
		if err != nil {
			b.Fatal(err)
		}
		truth[name] = ok
	}
	return reg, query, truth
}

func BenchmarkDiscoveryConsistency(b *testing.B) {
	reg, query, truth := discoveryWorkload(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := reg.MatchConsistent(query)
		if err != nil {
			b.Fatal(err)
		}
		ev := discovery.Evaluate("consistent", got, truth)
		b.ReportMetric(ev.Precision*100, "%precision")
	}
}

func BenchmarkDiscoveryOverlapBaseline(b *testing.B) {
	reg, query, truth := discoveryWorkload(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := reg.MatchOverlap(query)
		ev := discovery.Evaluate("overlap", got, truth)
		b.ReportMetric(ev.Precision*100, "%precision")
	}
}

// ---- D-6: decentralized vs. centralized consistency checking ----

func multiPartyWorkload(b *testing.B, pairs int) ([]decentral.Node, map[string]*afsa.Automaton) {
	b.Helper()
	nodes := make([]decentral.Node, 0, 2*pairs)
	parties := map[string]*afsa.Automaton{}
	for i := 0; i < pairs; i++ {
		pa, pb := fmt.Sprintf("P%da", i), fmt.Sprintf("P%db", i)
		conv := gen.MustGenerate(int64(i)+500, gen.Params{
			PartyA: pa, PartyB: pb, Messages: 6, MaxDepth: 2, ChoiceProb: 25, MaxBranch: 2,
		})
		ra, err := mapping.Derive(conv.A, conv.Registry)
		if err != nil {
			b.Fatal(err)
		}
		rb, err := mapping.Derive(conv.B, conv.Registry)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes,
			decentral.Node{Party: pa, Public: ra.Automaton},
			decentral.Node{Party: pb, Public: rb.Automaton})
		parties[pa] = ra.Automaton
		parties[pb] = rb.Automaton
	}
	return nodes, parties
}

func BenchmarkDecentralizedVsCentralized(b *testing.B) {
	for _, pairs := range []int{1, 2, 3, 4} {
		nodes, parties := multiPartyWorkload(b, pairs)
		b.Run(fmt.Sprintf("decentralized/pairs=%d", pairs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := decentral.Establish(nodes)
				if err != nil || !out.Consistent {
					b.Fatalf("decentral: %v", err)
				}
				b.ReportMetric(float64(out.LocalStates), "local-states")
				b.ReportMetric(float64(out.Messages), "messages")
			}
		})
		b.Run(fmt.Sprintf("centralized/pairs=%d", pairs), func(b *testing.B) {
			sys, err := runtime.NewSystem(parties)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res := sys.Explore(1 << 22)
				if !res.DeadlockFree() {
					b.Fatal("centralized found deadlock in consistent system")
				}
				b.ReportMetric(float64(res.States), "global-states")
			}
		})
	}
}

// ---- D-8: instance migration ----

func BenchmarkInstanceMigration(b *testing.B) {
	reg := paperrepro.Registry()
	oldRes, _ := mapping.Derive(paperrepro.BuyerProcess(), reg)
	newRes, _ := mapping.Derive(paperrepro.Fig18BuyerProcess(), reg)
	instances := instance.SampleInstances(oldRes.Automaton, 99, 1000, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := instance.Migrate(instances, newRes.Automaton)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MigratableFraction()*100, "%migratable")
	}
}

// ---- extensions: decentralized negotiation and version migration ----

func BenchmarkNegotiateChange(b *testing.B) {
	changed, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		b.Fatal(err)
	}
	reg := paperrepro.Registry()
	res, _ := mapping.Derive(changed, reg)
	buyer, _ := mapping.Derive(paperrepro.BuyerProcess(), reg)
	logistics, _ := mapping.Derive(paperrepro.LogisticsProcess(), reg)
	adapted, _ := mapping.Derive(paperrepro.Fig14BuyerProcess(), reg)
	views := map[string]*afsa.Automaton{
		paperrepro.Buyer:     res.Automaton.View(paperrepro.Buyer),
		paperrepro.Logistics: res.Automaton.View(paperrepro.Logistics),
	}
	partners := []decentral.Node{
		{Party: paperrepro.Buyer, Public: buyer.Automaton},
		{Party: paperrepro.Logistics, Public: logistics.Automaton},
	}
	adapter := func(party string, _ *afsa.Automaton) (*afsa.Automaton, bool) {
		if party == paperrepro.Buyer {
			return adapted.Automaton, true
		}
		return nil, false
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neg, err := decentral.NegotiateChange(paperrepro.Accounting, views, partners, adapter)
		if err != nil || !neg.Committed {
			b.Fatalf("negotiation failed: %v", err)
		}
	}
}

func BenchmarkVersionMigrateAll(b *testing.B) {
	reg := paperrepro.Registry()
	v0, _ := mapping.Derive(paperrepro.BuyerProcess(), reg)
	v1pub, _ := mapping.Derive(paperrepro.Fig18BuyerProcess(), reg)
	instances := instance.SampleInstances(v0.Automaton, 11, 500, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := NewVersionHistory(paperrepro.Buyer, paperrepro.BuyerProcess(), v0.Automaton)
		if err != nil {
			b.Fatal(err)
		}
		v1, err := h.Add(0, "bounded", paperrepro.Fig18BuyerProcess(), v1pub.Automaton)
		if err != nil {
			b.Fatal(err)
		}
		m := NewVersionManager(h)
		for _, inst := range instances {
			if err := m.Start(inst, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		out, err := m.MigrateAll(v1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(out.Migrated), "migrated")
	}
}

// ---- D-7 lives in criterion_test.go (a correctness experiment, not a
// timing benchmark). ----

// ---- D-8: the choreod serving layer (internal/store + internal/server) ----

// benchCtx is the background context the serving-layer benchmarks run
// their store and client calls under.
var benchCtx = context.Background()

// benchStoreFromGen loads n generated two-party choreographies into a
// fresh store (the service's synthetic tenant population).
func benchStoreFromGen(b *testing.B, n int) *store.Store {
	b.Helper()
	st := store.New()
	p := gen.Params{PartyA: "A", PartyB: "B", Messages: 12, MaxDepth: 3, ChoiceProb: 30, MaxBranch: 3}
	for i := 0; i < n; i++ {
		conv, err := gen.Generate(int64(i+1), p)
		if err != nil {
			b.Fatal(err)
		}
		id := fmt.Sprintf("tenant-%03d", i)
		if err := st.Create(benchCtx, id, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := st.RegisterParty(benchCtx, id, conv.A); err != nil {
			b.Fatal(err)
		}
		if _, err := st.RegisterParty(benchCtx, id, conv.B); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkStoreCheckCachedVsUncached reports both paths side by side
// as sub-benchmarks; the ratio is the payoff of the consistency-result
// cache.
func BenchmarkStoreCheckCachedVsUncached(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		st := benchStoreFromGen(b, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.CheckUncached(benchCtx, fmt.Sprintf("tenant-%03d", i%8)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		st := benchStoreFromGen(b, 8)
		for i := 0; i < 8; i++ {
			if _, err := st.Check(benchCtx, fmt.Sprintf("tenant-%03d", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Check(benchCtx, fmt.Sprintf("tenant-%03d", i%8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreParallelCheckEvolve drives parallel mixed traffic —
// mostly consistency checks with occasional evolve→commit writes —
// over generated choreographies, the workload choreod serves.
func BenchmarkStoreParallelCheckEvolve(b *testing.B) {
	const tenants = 16
	st := benchStoreFromGen(b, tenants)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			id := fmt.Sprintf("tenant-%03d", int(n)%tenants)
			if n%20 == 0 {
				snap, err := st.Snapshot(benchCtx, id)
				if err != nil {
					b.Fatal(err)
				}
				party, _ := snap.Party("A")
				op, err := gen.RandomChange(n, party.Private, snap.Registry)
				if err != nil {
					continue
				}
				evo, err := st.Evolve(benchCtx, id, "A", op)
				if err != nil {
					continue
				}
				_, _ = st.CommitEvolution(benchCtx, evo) // conflicts expected under contention
			} else if _, err := st.Check(benchCtx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChoreodHTTPCheck measures a full client→HTTP→store check
// round trip on the paper scenario, with concurrent clients.
func BenchmarkChoreodHTTPCheck(b *testing.B) {
	srv := server.New(store.New())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := server.NewClient(ts.URL, ts.Client())
	if err := c.CreateChoreography(benchCtx, "p", paperrepro.SyncOps); err != nil {
		b.Fatal(err)
	}
	for _, proc := range []*Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()} {
		if _, err := c.RegisterParty(benchCtx, "p", proc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rep, err := c.Check(benchCtx, "p")
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Consistent {
				b.Fatal("paper scenario inconsistent")
			}
		}
	})
}

// ---- journal overhead on the commit path ----

// benchCommitLoop registers the paper scenario into st and then
// times repeated UpdateParty commits of the accounting process — the
// full commit path (registry inference, public derivation, snapshot
// publication) with whatever durability st was built with.
func benchCommitLoop(b *testing.B, st *store.Store) {
	b.Helper()
	const id = "procurement"
	if err := st.Create(benchCtx, id, paperrepro.SyncOps); err != nil {
		b.Fatal(err)
	}
	if _, err := st.PutParties(benchCtx, id, []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil); err != nil {
		b.Fatal(err)
	}
	acct := paperrepro.AccountingProcess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.UpdateParty(benchCtx, id, acct, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioCommitJournal measures what the write-ahead
// journal adds to the ScenarioConsistency commit path: the same
// UpdateParty loop against an in-memory store, a journaled store, and
// a journaled store with per-append fsync. The mem/wal delta is the
// append overhead recorded in BENCH_afsa.json.
func BenchmarkScenarioCommitJournal(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		benchCommitLoop(b, store.New())
	})
	b.Run("wal", func(b *testing.B) {
		st, err := store.Open(store.WithJournal(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchCommitLoop(b, st)
	})
	b.Run("wal-fsync", func(b *testing.B) {
		st, err := store.Open(store.WithJournal(b.TempDir()), store.WithJournalFsync())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchCommitLoop(b, st)
	})
}
