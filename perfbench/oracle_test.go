package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ingest"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The oracle must be able to fail: fed the true expectations it passes,
// fed one corrupted expectation it reports the mismatch.

func oracleFixture(t *testing.T) (context.Context, *plan, *store.Store) {
	t.Helper()
	ctx := context.Background()
	p, err := newPlan("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := p.provision(ctx, storeAPI{st}); err != nil {
		t.Fatal(err)
	}
	return ctx, p, st
}

func TestOracleCatchesCorruptedEpisode(t *testing.T) {
	ctx, p, st := oracleFixture(t)
	a := storeAPI{st}
	for _, ep := range p.episodes {
		chor := chorID("shared", ep.sc)
		out, err := a.evolve(ctx, chor, ep)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEvolve(ep.ep, out); err != nil {
			t.Fatalf("true expectation rejected: %v", err)
		}
		flipped := ep.ep
		flipped.PublicChanged = !flipped.PublicChanged
		if checkEvolve(flipped, out) == nil {
			t.Errorf("%s: flipped publicChanged accepted", ep.ep.Name)
		}
		for partner, im := range ep.ep.Impacts {
			bad := ep.ep
			bad.Impacts = map[string]scenario.Impact{}
			for k, v := range ep.ep.Impacts {
				bad.Impacts[k] = v
			}
			im.Scope = map[string]string{"variant": "invariant", "invariant": "variant"}[im.Scope]
			bad.Impacts[partner] = im
			if checkEvolve(bad, out) == nil {
				t.Errorf("%s: corrupted scope for %s accepted", ep.ep.Name, partner)
			}
		}

		own := chorID(p.designPrefix, ep.sc)
		evo, err := a.evolve(ctx, own, ep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.migrate(ctx, own, ep.ep.Party, evo)
		if err != nil {
			t.Fatal(err)
		}
		want := whatIfCounts(ep.sc, ep.ep, popCopies)
		if err := checkCounts(ep.ep.Name, want, got); err != nil {
			t.Fatalf("true migrate expectation rejected: %v", err)
		}
		want.migratable--
		if checkCounts(ep.ep.Name, want, got) == nil {
			t.Errorf("%s: corrupted migrate count accepted", ep.ep.Name)
		}
	}
}

func TestOracleCatchesCorruptedConsistency(t *testing.T) {
	ctx, p, st := oracleFixture(t)
	chor := chorID("shared", p.corpus[0])
	out, err := storeAPI{st}.check(ctx, chor)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.book.verify(chor, out); err != nil {
		t.Fatalf("true expectation rejected: %v", err)
	}
	p.book.expect(chor, out.version, !out.consistent)
	if p.book.verify(chor, out) == nil {
		t.Error("corrupted consistency expectation accepted")
	}
	if p.book.verify(chor, checkOut{version: out.version + 1, consistent: true}) == nil {
		t.Error("a version never committed was accepted")
	}
}

func TestOracleCatchesCorruptedRecovery(t *testing.T) {
	ctx, p, st := oracleFixture(t)
	sc := p.corpus[0]
	chor := chorID(p.designPrefix, sc)
	in := sc.Instances[0]
	evs := make([]ingest.Event, len(in.Trace))
	for i, l := range in.Trace {
		evs[i] = ingest.Event{Party: in.Party, Instance: in.ID + "~t", Label: l}
	}
	if err := (storeAPI{st}).ingest(ctx, chor, evs); err != nil {
		t.Fatal(err)
	}
	p.acked.created(chor, in.Party, 1)
	p.acked.addSample(streamed{chor: chor, party: in.Party, id: in.ID + "~t", trace: in.Trace, status: in.Status})
	if err := p.acked.verifyStore(ctx, st); err != nil {
		t.Fatalf("true expectation rejected: %v", err)
	}

	corrupt := []struct {
		name  string
		apply func(a *acked)
	}{
		{"choreography version", func(a *acked) { a.version[chor]++ }},
		{"party version", func(a *acked) { a.party[chor][in.Party]++ }},
		{"instance count", func(a *acked) { a.instances[chor][in.Party]-- }},
		{"streamed status", func(a *acked) { a.sample[0].status = "unviable" }},
		{"streamed trace", func(a *acked) { a.sample[0].trace = a.sample[0].trace[1:] }},
	}
	for _, c := range corrupt {
		a := newAcked()
		for k, v := range p.acked.version {
			a.version[k] = v
		}
		for k, v := range p.acked.party {
			a.party[k] = map[string]uint64{}
			for kk, vv := range v {
				a.party[k][kk] = vv
			}
		}
		for k, v := range p.acked.instances {
			a.instances[k] = map[string]int{}
			for kk, vv := range v {
				a.instances[k][kk] = vv
			}
		}
		a.sample = append([]streamed(nil), p.acked.sample...)
		c.apply(a)
		if a.verifyStore(ctx, st) == nil {
			t.Errorf("corrupted %s accepted", c.name)
		}
	}
}

// failCommits answers every commit with an error, as a server that
// returns 500 on the commit endpoint would.
type failCommits struct{ storeAPI }

func (failCommits) commit(context.Context, *evolveOut) (uint64, error) {
	return 0, errors.New("500 internal server error")
}

// A run whose requests fail must come out incorrect, even though the
// clients only count failures: otherwise a class that always fails has
// no samples and reports a latency of 0.
func TestFailedRequestsFailTheRun(t *testing.T) {
	ctx := context.Background()
	for _, broken := range []bool{false, true} {
		p, err := newPlan("design", 1)
		if err != nil {
			t.Fatal(err)
		}
		st := store.New()
		if err := p.provision(ctx, storeAPI{st}); err != nil {
			t.Fatal(err)
		}
		var a api = storeAPI{st}
		if broken {
			a = failCommits{storeAPI{st}}
		}
		rec := newRecorder(nil)
		for i := 0; i < 3; i++ {
			for _, c := range append([]client{p.probe}, p.clients...) {
				if err := c.step(ctx, a, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		err = requireClean(rec, e2eClasses)
		if broken && err == nil {
			t.Error("a run whose every commit failed was accepted")
		}
		if !broken && err != nil {
			t.Errorf("a healthy run was rejected: %v", err)
		}
	}
	if requireClean(newRecorder(nil), e2eClasses) == nil {
		t.Error("a run that completed no request was accepted")
	}
}
