package store

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
	"repro/internal/wsdl"
)

// referenceEvolve is the differential reference for Evolve: an
// independent recompute that shares only core.Impacts with the store.
// Every party is derived afresh with mapping.Derive under reg, views
// are plain Public.View calls (no memo, no shared interner), partners
// come from the alphabets, and the transaction applies as one
// change.Composite.
func referenceEvolve(procs []*bpel.Process, reg *wsdl.Registry, party string, ops []change.Operation) (bool, []PartnerImpact, error) {
	ref := refParties{}
	for _, p := range procs {
		res, err := mapping.Derive(p, reg)
		if err != nil {
			return false, nil, err
		}
		ref[p.Owner] = core.Partner{Private: p, Public: res.Automaton, Table: res.Table, Alphabet: res.Automaton.Alphabet()}
	}
	orig, ok := ref[party]
	if !ok {
		return false, nil, fmt.Errorf("reference: unknown party %q", party)
	}
	changed, err := change.Composite{Ops: ops}.Apply(orig.Private)
	if err != nil {
		return false, nil, err
	}
	res, err := mapping.Derive(changed, reg)
	if err != nil {
		return false, nil, err
	}
	return core.Impacts(context.Background(), ref, party, orig.Public, res.Automaton, reg)
}

// refParties serves core.Impacts from freshly derived parties.
type refParties map[string]core.Partner

func (r refParties) Partner(name string) core.Partner { return r[name] }

func (r refParties) View(of, forParty string) *afsa.Automaton { return r[of].Public.View(forParty) }

func (r refParties) PartnersOf(party string) []string {
	seen := map[string]bool{}
	for l := range r[party].Alphabet {
		for _, other := range [2]string{l.Sender(), l.Receiver()} {
			if _, registered := r[other]; registered && other != party {
				seen[other] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// requireReference evolves party by ops through the store and checks
// the analysis against referenceEvolve over procs under the
// evolution's registry.
func requireReference(t *testing.T, s *Store, what, id string, procs []*bpel.Process, party string, ops []change.Operation) {
	t.Helper()
	evo, err := s.Evolve(ctx, id, party, ops...)
	if err != nil {
		t.Fatalf("%s: store evolve: %v", what, err)
	}
	changed, impacts, err := referenceEvolve(procs, evo.Registry, party, ops)
	if err != nil {
		t.Fatalf("%s: reference evolve failed where the store succeeded: %v", what, err)
	}
	sameImpacts(t, what+" vs reference", evo, changed, impacts)
}

// TestEvolveMatchesReference pins Evolve to the independent reference
// on every corpus episode and the paper's three changes.
func TestEvolveMatchesReference(t *testing.T) {
	s := New()
	compared := 0
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
				t.Fatalf("%s/%s: %v", sc.Name, ep.Name, err)
			}
			requireReference(t, s, sc.Name+"/"+ep.Name, sc.Name, sc.Parties, ep.Party, ops)
			compared++
		}
	}
	if want := 15; compared < want {
		t.Fatalf("compared %d corpus episodes, want at least %d", compared, want)
	}

	s, id := paperStore(t)
	procs := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	for name, op := range map[string]change.Operation{
		"order_2":        paperrepro.OrderTwoChange(),
		"cancel":         paperrepro.CancelChange(),
		"tracking limit": paperrepro.TrackingLimitChange(),
	} {
		requireReference(t, s, name, id, procs, paperrepro.Accounting, []change.Operation{op})
	}
}
