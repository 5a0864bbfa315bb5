package main

import (
	"context"
	"fmt"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// api is one way of reaching choreod. The workloads run unchanged over
// HTTP with the typed client (httpAPI) and over direct calls on an
// in-process store (storeAPI), so the same seeded schedule can be
// timed end to end and at the store boundary.
type api interface {
	provision(ctx context.Context, chor string, sc *scenario.Scenario, pop map[string][]instance.Instance) error
	evolve(ctx context.Context, chor string, ep *episode) (*evolveOut, error)
	migrate(ctx context.Context, chor, party string, evo *evolveOut) (migrateOut, error)
	commit(ctx context.Context, evo *evolveOut) (uint64, error)
	check(ctx context.Context, chor string) (checkOut, error)
	// putParty replaces a party's private process and returns the new
	// party version.
	putParty(ctx context.Context, chor string, p *bpel.Process) (uint64, error)
	ingest(ctx context.Context, chor string, evs []ingest.Event) error
}

// episode is a corpus episode with its ops in both encodings, built
// once at set-up so no request pays for the conversion.
type episode struct {
	sc   *scenario.Scenario
	ep   scenario.Episode
	wire []server.OpJSON
	ops  []change.Operation
}

func newEpisode(sc *scenario.Scenario, ep scenario.Episode) (*episode, error) {
	ops, err := ep.Operations()
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", sc.Name, ep.Name, err)
	}
	wire := make([]server.OpJSON, len(ep.Ops))
	for i, sp := range ep.Ops {
		wire[i] = server.OpJSON(sp)
	}
	return &episode{sc: sc, ep: ep, wire: wire, ops: ops}, nil
}

// impact is one partner's classification as the evolve call reported it.
type impact struct {
	viewChanged bool
	kind, scope string
}

type evolveOut struct {
	id          string           // evolution ID over HTTP
	evo         *store.Evolution // the analysis itself on a direct store
	chor, party string
	base        uint64
	public      bool
	impacts     map[string]impact
}

type checkOut struct {
	version    uint64
	consistent bool
}

type migrateOut struct {
	total, migratable, nonReplayable, unviable int
}

// ---- over HTTP ----

type httpAPI struct{ c *server.Client }

func (a httpAPI) provision(ctx context.Context, chor string, sc *scenario.Scenario, pop map[string][]instance.Instance) error {
	if err := a.c.CreateChoreography(ctx, chor, sc.SyncOps); err != nil {
		return fmt.Errorf("creating %s: %w", chor, err)
	}
	if _, err := a.c.RegisterParties(ctx, chor, sc.Parties, nil); err != nil {
		return fmt.Errorf("registering %s: %w", chor, err)
	}
	for _, p := range sc.Parties {
		insts := pop[p.Owner]
		if len(insts) == 0 {
			continue
		}
		wire := make([]server.InstanceJSON, len(insts))
		for i, in := range insts {
			wire[i] = server.InstanceJSON{ID: in.ID}
			for _, l := range in.Trace {
				wire[i].Trace = append(wire[i].Trace, l.String())
			}
		}
		if _, err := a.c.AddInstances(ctx, chor, p.Owner, wire); err != nil {
			return fmt.Errorf("seeding %s/%s: %w", chor, p.Owner, err)
		}
	}
	return nil
}

func (a httpAPI) evolve(ctx context.Context, chor string, ep *episode) (*evolveOut, error) {
	r, err := a.c.EvolveOps(ctx, chor, ep.ep.Party, ep.wire)
	if err != nil {
		return nil, err
	}
	out := &evolveOut{id: r.Evolution, chor: chor, party: ep.ep.Party, base: r.BaseVersion,
		public: r.PublicChanged, impacts: map[string]impact{}}
	for _, im := range r.Impacts {
		out.impacts[im.Partner] = impact{viewChanged: im.ViewChanged, kind: im.Kind, scope: im.Scope}
	}
	return out, nil
}

func (a httpAPI) migrate(ctx context.Context, chor, party string, evo *evolveOut) (migrateOut, error) {
	id := ""
	if evo != nil {
		id = evo.id
	}
	r, err := a.c.Migrate(ctx, chor, party, id)
	if err != nil {
		return migrateOut{}, err
	}
	return migrateOut{r.Total, r.Migratable, r.NonReplayable, r.Unviable}, nil
}

func (a httpAPI) commit(ctx context.Context, evo *evolveOut) (uint64, error) {
	r, err := a.c.Commit(ctx, evo.id)
	if err != nil {
		return 0, err
	}
	return r.Version, nil
}

func (a httpAPI) check(ctx context.Context, chor string) (checkOut, error) {
	r, err := a.c.Check(ctx, chor)
	if err != nil {
		return checkOut{}, err
	}
	return checkOut{r.Version, r.Consistent}, nil
}

func (a httpAPI) putParty(ctx context.Context, chor string, p *bpel.Process) (uint64, error) {
	r, err := a.c.UpdateParty(ctx, chor, p, nil)
	if err != nil {
		return 0, err
	}
	return r.Version, nil
}

func (a httpAPI) ingest(ctx context.Context, chor string, evs []ingest.Event) error {
	wire := make([]server.IngestEventJSON, len(evs))
	for i, ev := range evs {
		wire[i] = server.IngestEventJSON{Party: ev.Party, Instance: ev.Instance, Label: string(ev.Label)}
	}
	n, err := a.c.IngestEvents(ctx, chor, wire)
	if err == nil && n != len(evs) {
		err = fmt.Errorf("ingested %d of %d events", n, len(evs))
	}
	return err
}

// ---- direct store calls ----

type storeAPI struct{ st *store.Store }

func (a storeAPI) provision(ctx context.Context, chor string, sc *scenario.Scenario, pop map[string][]instance.Instance) error {
	if err := a.st.Create(ctx, chor, sc.SyncOps); err != nil {
		return err
	}
	if _, err := a.st.PutParties(ctx, chor, sc.Parties, nil); err != nil {
		return err
	}
	for _, p := range sc.Parties {
		if insts := pop[p.Owner]; len(insts) > 0 {
			if err := a.st.AddInstances(ctx, chor, p.Owner, insts); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a storeAPI) evolve(ctx context.Context, chor string, ep *episode) (*evolveOut, error) {
	evo, err := a.st.Evolve(ctx, chor, ep.ep.Party, ep.ops...)
	if err != nil {
		return nil, err
	}
	return evolveOutOf(evo), nil
}

// evolveOutOf renders a store analysis the way the server reports it.
func evolveOutOf(evo *store.Evolution) *evolveOut {
	out := &evolveOut{evo: evo, chor: evo.Choreography, party: evo.Party, base: evo.BaseVersion,
		public: evo.PublicChanged, impacts: map[string]impact{}}
	for _, im := range evo.Impacts {
		i := impact{viewChanged: im.ViewChanged}
		if im.ViewChanged {
			i.kind, i.scope = im.Classification.Kind.String(), im.Classification.Scope.String()
		}
		out.impacts[im.Partner] = i
	}
	return out
}

func (a storeAPI) migrate(ctx context.Context, chor, party string, evo *evolveOut) (migrateOut, error) {
	var candidate *afsa.Automaton // nil: the party's current public process
	if evo != nil {
		candidate = evo.evo.NewPublic
	}
	rep, err := a.st.Migrate(ctx, chor, party, candidate)
	if err != nil {
		return migrateOut{}, err
	}
	return migrateOut{rep.Total, rep.Migratable, rep.NonReplayable, rep.Unviable}, nil
}

func (a storeAPI) commit(ctx context.Context, evo *evolveOut) (uint64, error) {
	snap, err := a.st.CommitEvolution(ctx, evo.evo)
	if err != nil {
		return 0, err
	}
	return snap.Version, nil
}

func (a storeAPI) check(ctx context.Context, chor string) (checkOut, error) {
	rep, err := a.st.Check(ctx, chor)
	if err != nil {
		return checkOut{}, err
	}
	return checkOut{rep.Version, rep.Consistent()}, nil
}

func (a storeAPI) putParty(ctx context.Context, chor string, p *bpel.Process) (uint64, error) {
	snap, err := a.st.UpdateParty(ctx, chor, p, nil)
	if err != nil {
		return 0, err
	}
	ps, _ := snap.Party(p.Owner)
	return ps.Version, nil
}

func (a storeAPI) ingest(ctx context.Context, chor string, evs []ingest.Event) error {
	_, err := a.st.IngestEvents(ctx, chor, evs)
	return err
}
