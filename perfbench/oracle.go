package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The correctness oracle. Every run checks what choreod answers against
// the scenario corpus's exact expectations; any mismatch fails the run.

// checkEvolve compares one evolve answer with the episode's expected
// outcome: publicChanged, and per partner whether its view changed and
// how the change is classified (kind and scope, paper Defs. 5/6).
func checkEvolve(ep scenario.Episode, got *evolveOut) error {
	if got.public != ep.PublicChanged {
		return fmt.Errorf("evolve %s: publicChanged %v, want %v", ep.Name, got.public, ep.PublicChanged)
	}
	for partner, im := range got.impacts {
		want, ok := ep.Impacts[partner]
		switch {
		case !ok && im.viewChanged:
			return fmt.Errorf("evolve %s: partner %s: unexpected view change (%s %s)", ep.Name, partner, im.kind, im.scope)
		case ok && (!im.viewChanged || im.kind != want.Kind || im.scope != want.Scope):
			return fmt.Errorf("evolve %s: partner %s: got changed=%v %s %s, want %s %s",
				ep.Name, partner, im.viewChanged, im.kind, im.scope, want.Kind, want.Scope)
		}
	}
	for partner := range ep.Impacts {
		if _, ok := got.impacts[partner]; !ok {
			return fmt.Errorf("evolve %s: partner %s: no impact reported", ep.Name, partner)
		}
	}
	return nil
}

// variant reports whether committing the episode leaves the
// choreography inconsistent until partners adapt.
func variant(ep scenario.Episode) bool {
	for _, im := range ep.Impacts {
		if im.Scope == "variant" {
			return true
		}
	}
	return false
}

// population replicates each scripted instance of the given parties
// copies times under distinct IDs: the fixed instance population
// migrate scans.
func population(sc *scenario.Scenario, parties []string, copies int) map[string][]instance.Instance {
	out := map[string][]instance.Instance{}
	for _, party := range parties {
		for _, in := range sc.InstancesOf(party) {
			for k := 0; k < copies; k++ {
				out[party] = append(out[party], instance.Instance{ID: fmt.Sprintf("%s#%d", in.ID, k), Trace: in.Trace})
			}
		}
	}
	return out
}

// baseCounts is the migrate report expected for a party's population
// against its unchanged public process: the scripted statuses.
func baseCounts(sc *scenario.Scenario, party string, copies int) migrateOut {
	var m migrateOut
	for _, in := range sc.InstancesOf(party) {
		m.add(in.Status, copies)
	}
	return m
}

// whatIfCounts is the migrate report expected for the originator's
// population against an episode's evolved public process: the
// episode's stranded set says which scripted instances cannot migrate
// and why; every other one migrates.
func whatIfCounts(sc *scenario.Scenario, ep scenario.Episode, copies int) migrateOut {
	stranded := map[string]string{}
	for _, st := range ep.Stranded {
		if st.Party == ep.Party {
			stranded[st.ID] = st.Status
		}
	}
	var m migrateOut
	for _, in := range sc.InstancesOf(ep.Party) {
		status, ok := stranded[in.ID]
		if !ok {
			status = instance.Migratable.String()
		}
		m.add(status, copies)
	}
	return m
}

func (m *migrateOut) add(status string, n int) {
	m.total += n
	switch status {
	case instance.Migratable.String():
		m.migratable += n
	case instance.NonReplayable.String():
		m.nonReplayable += n
	case instance.Unviable.String():
		m.unviable += n
	}
}

func checkCounts(what string, want, got migrateOut) error {
	if want != got {
		return fmt.Errorf("migrate %s: got %+v, want %+v", what, got, want)
	}
	return nil
}

// book holds, per choreography and snapshot version, the consistency a
// check at that version must report: consistent unless a variant change
// is committed. Writers record a version before they create it, so a
// concurrent reader never sees a version the book does not know.
type book struct {
	mu   sync.Mutex
	want map[string]map[uint64]bool
}

func newBook() *book { return &book{want: map[string]map[uint64]bool{}} }

func (b *book) expect(chor string, version uint64, consistent bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.want[chor] == nil {
		b.want[chor] = map[uint64]bool{}
	}
	b.want[chor][version] = consistent
}

func (b *book) verify(chor string, got checkOut) error {
	b.mu.Lock()
	want, ok := b.want[chor][got.version]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("check %s: version %d was never committed", chor, got.version)
	}
	if want != got.consistent {
		return fmt.Errorf("check %s@%d: consistent=%v, want %v", chor, got.version, got.consistent, want)
	}
	return nil
}

// acked is what choreod acknowledged: snapshot versions, party versions
// and instance counts per choreography. A journal reopened after a kill
// must hold exactly this.
type acked struct {
	mu        sync.Mutex
	version   map[string]uint64
	party     map[string]map[string]uint64
	instances map[string]map[string]int
	// sample holds streamed instances whose whole trace was acked: the
	// trace they must have, and the scripted status it has.
	sample []streamed
}

type streamed struct {
	chor   string
	party  string
	id     string
	trace  []label.Label
	status string
}

func newAcked() *acked {
	return &acked{version: map[string]uint64{}, party: map[string]map[string]uint64{}, instances: map[string]map[string]int{}}
}

// provisioned records a freshly registered choreography (version 1,
// every party at version 1) with its seeded population.
func (a *acked) provisioned(chor string, parties []string, pop map[string][]instance.Instance) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version[chor] = 1
	a.party[chor] = map[string]uint64{}
	a.instances[chor] = map[string]int{}
	for _, p := range parties {
		a.party[chor][p] = 1
		a.instances[chor][p] = len(pop[p])
	}
}

// bumped records an acked write that published version v of chor and
// advanced party's version to pv.
func (a *acked) bumped(chor string, v uint64, party string, pv uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version[chor] = v
	a.party[chor][party] = pv
}

// revertedTo records an acked PUT party: the next snapshot version,
// party at version pv.
func (a *acked) revertedTo(chor, party string, pv uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.version[chor]++
	a.party[chor][party] = pv
}

func (a *acked) partyVersion(chor, party string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.party[chor][party]
}

func (a *acked) created(chor, party string, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.instances[chor][party] += n
}

func (a *acked) addSample(s streamed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sample = append(a.sample, s)
}

// verifyStore checks a store against everything acked: choreography
// versions, party versions, per-party instance counts, and the sampled
// streamed instances' traces and statuses. Run on a journal reopened
// after a kill, it proves no acked write was lost.
func (a *acked) verifyStore(ctx context.Context, st *store.Store) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	chors := make([]string, 0, len(a.version))
	for c := range a.version {
		chors = append(chors, c)
	}
	sort.Strings(chors)
	for _, chor := range chors {
		snap, err := st.Snapshot(ctx, chor)
		if err != nil {
			return fmt.Errorf("%s: %w", chor, err)
		}
		if snap.Version != a.version[chor] {
			return fmt.Errorf("%s: version %d, acked %d", chor, snap.Version, a.version[chor])
		}
		for party, pv := range a.party[chor] {
			ps, ok := snap.Party(party)
			if !ok || ps.Version != pv {
				return fmt.Errorf("%s/%s: party version mismatch (acked %d)", chor, party, pv)
			}
			recs, err := st.InstanceRecords(ctx, chor, party)
			if err != nil {
				return err
			}
			if len(recs) != a.instances[chor][party] {
				return fmt.Errorf("%s/%s: %d instances, acked %d", chor, party, len(recs), a.instances[chor][party])
			}
		}
	}
	return verifyStreamed(ctx, st, a.sample)
}

// verifyStreamed checks sampled streamed instances: each must hold
// exactly the trace that was ingested, the status the streaming path
// derived for it must equal instance.Check of that whole trace against
// the party's current public process, and both must equal the
// scripted status.
func verifyStreamed(ctx context.Context, st *store.Store, sample []streamed) error {
	type key struct{ chor, party string }
	byParty := map[key]map[string]store.InstanceState{}
	traces := map[key]map[string][]label.Label{}
	for _, s := range sample {
		k := key{s.chor, s.party}
		if byParty[k] != nil {
			continue
		}
		states, err := st.InstanceStates(ctx, s.chor, s.party)
		if err != nil {
			return err
		}
		byParty[k] = map[string]store.InstanceState{}
		for _, is := range states {
			byParty[k][is.ID] = is
		}
		recs, err := st.InstanceRecords(ctx, s.chor, s.party)
		if err != nil {
			return err
		}
		traces[k] = map[string][]label.Label{}
		for _, r := range recs {
			traces[k][r.Inst.ID] = r.Inst.Trace
		}
	}
	for _, s := range sample {
		k := key{s.chor, s.party}
		is, ok := byParty[k][s.id]
		if !ok {
			return fmt.Errorf("streamed %s/%s/%s: not tracked", s.chor, s.party, s.id)
		}
		trace := traces[k][s.id]
		if fmt.Sprint(trace) != fmt.Sprint(s.trace) {
			return fmt.Errorf("streamed %s/%s/%s: trace %v, ingested %v", s.chor, s.party, s.id, trace, s.trace)
		}
		snap, err := st.Snapshot(ctx, s.chor)
		if err != nil {
			return err
		}
		ps, _ := snap.Party(s.party)
		whole, err := instance.Check(instance.Instance{ID: s.id, Trace: trace}, ps.Public)
		if err != nil {
			return err
		}
		if is.Status != whole || whole.String() != s.status {
			return fmt.Errorf("streamed %s/%s/%s: streamed status %s, whole-trace check %s, scripted %s",
				s.chor, s.party, s.id, is.Status, whole, s.status)
		}
	}
	return nil
}
