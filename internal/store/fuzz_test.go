package store

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/scenario"
)

// fuzzOpFromBytes decodes one change operation from the fuzz input
// cursor against the party's current process: the first byte picks the
// op kind, the following bytes pick target paths, partners and
// conditions. Returns false when the input is exhausted.
func fuzzOpFromBytes(data []byte, pos *int, p *bpel.Process, partners []string, serial int) (change.Operation, bool) {
	next := func() (byte, bool) {
		if *pos >= len(data) {
			return 0, false
		}
		b := data[*pos]
		*pos++
		return b, true
	}
	kind, ok := next()
	if !ok {
		return nil, false
	}
	sel, ok := next()
	if !ok {
		return nil, false
	}
	var paths []bpel.Path
	bpel.Walk(p.Body, func(_ bpel.Activity, path bpel.Path) bool {
		paths = append(paths, append(bpel.Path(nil), path...))
		return true
	})
	if len(paths) == 0 {
		return nil, false
	}
	path := paths[int(sel)%len(paths)]
	partner := partners[int(sel)%len(partners)]
	freshInv := &bpel.Invoke{
		BlockName: fmt.Sprintf("fuzz invoke %d", serial),
		Partner:   partner,
		Op:        fmt.Sprintf("fuzzOp%d", serial),
	}
	switch kind % 8 {
	case 0:
		return change.Insert{Path: path, New: &bpel.Empty{BlockName: fmt.Sprintf("fuzz empty %d", serial)}, After: sel%2 == 0}, true
	case 1:
		return change.Insert{Path: path, New: &bpel.Assign{BlockName: fmt.Sprintf("fuzz assign %d", serial)}, After: sel%2 == 1}, true
	case 2:
		return change.Delete{Path: path}, true
	case 3:
		return change.Replace{Path: path, New: &bpel.Empty{BlockName: fmt.Sprintf("fuzz hole %d", serial)}}, true
	case 4:
		return change.Replace{Path: path, New: freshInv}, true
	case 5:
		return change.Append{Path: path, New: freshInv}, true
	case 6:
		cond := "1 = 1"
		if sel%2 == 0 {
			cond = "count < 3"
		}
		return change.SetWhileCond{Path: path, Cond: cond}, true
	default:
		anchor := ""
		if len(path) > 0 {
			anchor = path[len(path)-1]
		}
		other := paths[int(kind)%len(paths)]
		return change.Shift{Path: other, Anchor: anchor, After: sel%2 == 0}, true
	}
}

// FuzzEvolveOps throws random op transactions at Evolve across the
// whole scenario corpus. Three invariants: Evolve never panics
// (malformed transactions fail with an error); for every transaction
// that applies cleanly the analysis is path-independent — evolving
// through the op sequence analyzes exactly like evolving through a
// single replace-the-whole-process op with the same final private; and
// the store agrees with referenceEvolve run on the same parties under
// the evolution's registry.
func FuzzEvolveOps(f *testing.F) {
	scs, err := scenario.All()
	if err != nil {
		f.Fatal(err)
	}
	stores := make([]*Store, len(scs))
	for i, sc := range scs {
		s := New(WithShards(2))
		if err := s.Create(ctx, sc.Name, sc.SyncOps); err != nil {
			f.Fatal(err)
		}
		for _, p := range sc.Parties {
			if _, err := s.RegisterParty(ctx, sc.Name, p); err != nil {
				f.Fatal(err)
			}
		}
		stores[i] = s
	}

	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 1, 2, 7, 0, 3})
	f.Add([]byte{2, 3, 4, 5, 5, 9, 6, 2})
	f.Add([]byte{7, 200, 150, 3, 17, 4, 80, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		si := int(data[0]) % len(scs)
		sc, s := scs[si], stores[si]
		party := sc.Parties[int(data[1])%len(sc.Parties)].Owner
		var partners []string
		for _, p := range sc.Parties {
			partners = append(partners, p.Owner)
		}

		base := sc.Party(party)
		pos := 2
		var ops []change.Operation
		for serial := 0; len(ops) < 4; serial++ {
			op, ok := fuzzOpFromBytes(data, &pos, base, partners, serial)
			if !ok {
				break
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return
		}

		// Reference: apply the ops offline. A transaction that fails
		// offline must fail in Evolve too (and must not panic).
		final := base
		var applyErr error
		for _, op := range ops {
			if final, applyErr = op.Apply(final); applyErr != nil {
				break
			}
		}

		evo, err := s.Evolve(ctx, sc.Name, party, ops...)
		if applyErr != nil {
			if err == nil {
				t.Fatalf("%s/%s: Evolve accepted a transaction that fails offline (%v)", sc.Name, party, applyErr)
			}
			return
		}
		refOp := change.Replace{Path: nil, New: final.Body}
		ref, refErr := s.Evolve(ctx, sc.Name, party, refOp)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s/%s: op-sequence Evolve err=%v, replace-process Evolve err=%v", sc.Name, party, err, refErr)
		}
		if err != nil {
			// Both paths rejected the result (e.g. an invalid process);
			// agreeing on failure is all we ask.
			return
		}

		if !afsa.Equivalent(evo.NewPublic, ref.NewPublic) {
			t.Fatalf("%s/%s: new publics differ between op-sequence and replace-process analysis", sc.Name, party)
		}
		what := fmt.Sprintf("%s/%s", sc.Name, party)
		sameImpacts(t, what+" via replaceProcess", evo, ref.PublicChanged, ref.Impacts)

		// The independent reference on the same parties under the
		// evolution's registry.
		refChanged, refImpacts, err := referenceEvolve(sc.Parties, evo.Registry, party, ops)
		if err != nil {
			t.Fatalf("%s: reference evolve failed where the store succeeded: %v", what, err)
		}
		sameImpacts(t, what+" vs reference", evo, refChanged, refImpacts)
	})
}

// sameImpacts requires an analysis to match evo partner by partner:
// view change, classification, plan count and suggestions.
func sameImpacts(t *testing.T, what string, evo *Evolution, publicChanged bool, impacts []PartnerImpact) {
	t.Helper()
	if publicChanged != evo.PublicChanged || len(impacts) != len(evo.Impacts) {
		t.Fatalf("%s: PublicChanged %v with %d impacts, store has %v with %d",
			what, publicChanged, len(impacts), evo.PublicChanged, len(evo.Impacts))
	}
	for i, want := range evo.Impacts {
		got := impacts[i]
		if got.Partner != want.Partner || got.ViewChanged != want.ViewChanged ||
			got.Classification != want.Classification || len(got.Plans) != len(want.Plans) {
			t.Fatalf("%s: partner %s changed=%v %v plans=%d, store has %s changed=%v %v plans=%d", what,
				got.Partner, got.ViewChanged, got.Classification, len(got.Plans),
				want.Partner, want.ViewChanged, want.Classification, len(want.Plans))
		}
		// Suggestion.String renders each element.
		if g, w := fmt.Sprint(got.Suggestions), fmt.Sprint(want.Suggestions); g != w {
			t.Fatalf("%s: partner %s suggestions %s, store has %s", what, want.Partner, g, w)
		}
	}
}
