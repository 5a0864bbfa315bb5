package server

import (
	"reflect"
	"testing"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/paperrepro"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestStoreAndHTTPAgree is the differential check across the two ways
// to analyze an evolution: store.Evolve in process and a /v2/ evolve
// over HTTP. Every corpus episode and the paper's three changes must
// render to identical impacts on both. (The store itself is pinned to
// an independent recompute by the store package's reference tests.)
func TestStoreAndHTTPAgree(t *testing.T) {
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
			compareSurfaces(t, srv.Store(), sc.Name+"/"+ep.Name, sc.Name, ep.Party, ops, httpEvo)
			compared++
		}
	}
	if want := 15; compared < want {
		t.Fatalf("compared %d corpus episodes, want at least %d", compared, want)
	}

	const id = "procurement"
	parties := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	if err := c.CreateChoreography(ctx, id, paperrepro.SyncOps); err != nil {
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
		compareSurfaces(t, srv.Store(), name, id, paperrepro.Accounting, []change.Operation{op}, httpEvo)
	}
}

// compareSurfaces evolves party by ops through the store and checks
// it against the HTTP answer.
func compareSurfaces(t *testing.T, st *store.Store, name, id, party string, ops []change.Operation, httpEvo *EvolveOpsResponse) {
	t.Helper()
	evo, err := st.Evolve(ctx, id, party, ops...)
	if err != nil {
		t.Fatalf("%s: store evolve: %v", name, err)
	}
	if evo.PublicChanged != httpEvo.PublicChanged || evo.NeedsPropagation() != httpEvo.NeedsPropagation {
		t.Fatalf("%s: store PublicChanged=%v NeedsPropagation=%v, http %v %v", name,
			evo.PublicChanged, evo.NeedsPropagation(), httpEvo.PublicChanged, httpEvo.NeedsPropagation)
	}
	if got := impactsJSON(evo); !reflect.DeepEqual(got, httpEvo.Impacts) {
		t.Fatalf("%s: store and HTTP impacts differ:\n%+v\nvs\n%+v", name, got, httpEvo.Impacts)
	}
}
