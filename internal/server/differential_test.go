package server

import (
	"reflect"
	"testing"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/choreography"
	"repro/internal/paperrepro"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestThreeSurfacesAgree is the differential check across the three
// ways to analyze an evolution: store.Evolve, the in-process
// choreography.Evolve (loaded with the parties and the evolution's
// registry) and a /v2/ evolve over HTTP. Every corpus episode and the
// paper's three changes must render to identical impacts on all
// three.
func TestThreeSurfacesAgree(t *testing.T) {
	c, srv := testClient(t)
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, sc := range scs {
		if err := c.CreateChoreography(ctx, sc.Name, sc.SyncOps); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RegisterParties(ctx, sc.Name, sc.Parties, nil); err != nil {
			t.Fatal(err)
		}
		for _, ep := range sc.Episodes {
			ops, err := ep.Operations()
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, ep.Name, err)
			}
			wire := make([]OpJSON, len(ep.Ops))
			for i, spec := range ep.Ops {
				wire[i] = OpJSON(spec)
			}
			httpEvo, err := c.EvolveOps(ctx, sc.Name, ep.Party, wire)
			if err != nil {
				t.Fatalf("%s/%s: HTTP evolve: %v", sc.Name, ep.Name, err)
			}
			compareSurfaces(t, srv.Store(), sc.Name+"/"+ep.Name, sc.Name, sc.Parties, ep.Party, ops, httpEvo)
			compared++
		}
	}
	if want := 15; compared < want {
		t.Fatalf("compared %d corpus episodes, want at least %d", compared, want)
	}

	const id = "procurement"
	parties := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	if err := c.CreateChoreography(ctx, id, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterParties(ctx, id, parties, nil); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]change.Operation{
		"order_2":        paperrepro.OrderTwoChange(),
		"cancel":         paperrepro.CancelChange(),
		"tracking limit": paperrepro.TrackingLimitChange(),
	} {
		httpEvo, err := c.Evolve(ctx, id, apply(t, paperrepro.AccountingProcess(), op))
		if err != nil {
			t.Fatalf("%s: HTTP evolve: %v", name, err)
		}
		compareSurfaces(t, srv.Store(), name, id, parties, paperrepro.Accounting, []change.Operation{op}, httpEvo)
	}
}

// compareSurfaces evolves party by ops through the store and
// in-process, and checks both against the HTTP answer.
func compareSurfaces(t *testing.T, st *store.Store, name, id string, parties []*bpel.Process, party string, ops []change.Operation, httpEvo *EvolveOpsResponse) {
	t.Helper()
	evo, err := st.Evolve(ctx, id, party, ops...)
	if err != nil {
		t.Fatalf("%s: store evolve: %v", name, err)
	}
	chor := choreography.New(evo.Registry)
	for _, p := range parties {
		if err := chor.AddParty(p); err != nil {
			t.Fatalf("%s: in-process AddParty(%s): %v", name, p.Owner, err)
		}
	}
	rep, err := chor.Evolve(party, change.Composite{Ops: ops})
	if err != nil {
		t.Fatalf("%s: in-process evolve: %v", name, err)
	}
	inProcess := &store.Evolution{PublicChanged: rep.PublicChanged}
	for _, im := range rep.Impacts {
		inProcess.Impacts = append(inProcess.Impacts, store.PartnerImpact(im))
	}

	if evo.PublicChanged != httpEvo.PublicChanged || rep.PublicChanged != httpEvo.PublicChanged {
		t.Fatalf("%s: PublicChanged store=%v in-process=%v http=%v", name, evo.PublicChanged, rep.PublicChanged, httpEvo.PublicChanged)
	}
	if evo.NeedsPropagation() != httpEvo.NeedsPropagation || rep.NeedsPropagation() != httpEvo.NeedsPropagation {
		t.Fatalf("%s: NeedsPropagation store=%v in-process=%v http=%v", name, evo.NeedsPropagation(), rep.NeedsPropagation(), httpEvo.NeedsPropagation)
	}
	if got := impactsJSON(evo); !reflect.DeepEqual(got, httpEvo.Impacts) {
		t.Fatalf("%s: store and HTTP impacts differ:\n%+v\nvs\n%+v", name, got, httpEvo.Impacts)
	}
	if got := impactsJSON(inProcess); !reflect.DeepEqual(got, httpEvo.Impacts) {
		t.Fatalf("%s: in-process and HTTP impacts differ:\n%+v\nvs\n%+v", name, got, httpEvo.Impacts)
	}
}
