package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/scenario"
)

// popCopies replicates each scripted instance of a migrate target party:
// 1-4 scripted instances per party give 256-1024 instances.
const popCopies = 256

var workloads = []string{"design", "runtime", "mixed"}

// classes are the request classes the clients issue; revert is the PUT
// party that undoes a commit.
var classes = []string{"evolve", "commit", "revert", "check", "migrate", "ingest"}

// client is one closed-loop caller: step issues its next requests, each
// after the previous reply. A returned error is an oracle mismatch and
// fails the run; failed requests are only recorded.
type client interface {
	step(ctx context.Context, a api, rec sink) error
}

// deck deals 0..n-1 in a seeded random order, reshuffling after every
// pass. Clients walk the whole corpus through decks, so the seed sets
// the order of the work but every run does the same mix of it.
type deck struct {
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(n int, seed int64) *deck {
	d := &deck{rng: rand.New(rand.NewSource(seed)), order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	d.next = n
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// chorSpec is one choreography the workload provisions.
type chorSpec struct {
	id  string
	sc  *scenario.Scenario
	pop map[string][]instance.Instance
}

// plan is one workload's fully seeded schedule: the choreographies to
// provision, the two timed clients, and the side probe that times the
// op classes the timed mix leaves out. Every plan built from the same
// workload and seed behaves identically, so the untraced, traced and
// direct-store runs replay one schedule.
type plan struct {
	corpus  []*scenario.Scenario
	chors   []chorSpec
	clients []client
	// probe runs alone after the timed window and times the classes
	// the clients leave out.
	probe client
	book  *book
	acked *acked
	// episodes are the corpus episodes, in corpus order.
	episodes []*episode
	// designPrefix names the first design client's choreography copies.
	designPrefix string
}

func newPlan(workload string, seed int64) (*plan, error) {
	corpus, err := scenario.All()
	if err != nil {
		return nil, err
	}
	p := &plan{corpus: corpus, book: newBook(), acked: newAcked()}
	for _, sc := range corpus {
		for _, ep := range sc.Episodes {
			e, err := newEpisode(sc, ep)
			if err != nil {
				return nil, err
			}
			p.episodes = append(p.episodes, e)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "design":
		p.clients = []client{p.designClient(0, rng.Int63()), p.designClient(1, rng.Int63())}
		p.probe = p.runtimeClient(9, "probe-ingest", nil, false, rng.Int63())
	case "runtime":
		p.clients = []client{
			p.runtimeClient(0, "runtime0", nil, true, rng.Int63()),
			p.runtimeClient(1, "runtime1", nil, true, rng.Int63()),
		}
		p.probe = p.designClient(9, rng.Int63())
	case "mixed":
		d := p.designClient(0, rng.Int63())
		// The runtime client streams into the design client's
		// choreographies, but only for parties no episode evolves: the
		// population the design client's what-if migrate scans stays
		// fixed while commits land under the ingest stream.
		p.clients = []client{d, p.runtimeClient(1, d.prefix, d.originator, true, rng.Int63())}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	return p, nil
}

func (p *plan) addChor(id string, sc *scenario.Scenario, pop map[string][]instance.Instance) {
	for _, c := range p.chors {
		if c.id == id {
			return
		}
	}
	p.chors = append(p.chors, chorSpec{id: id, sc: sc, pop: pop})
}

func chorID(prefix string, sc *scenario.Scenario) string { return prefix + "-" + sc.Name }

// originators maps each scenario to the parties its episodes evolve.
func originators(corpus []*scenario.Scenario) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, sc := range corpus {
		out[sc.Name] = map[string]bool{}
		for _, ep := range sc.Episodes {
			out[sc.Name][ep.Party] = true
		}
	}
	return out
}

func (p *plan) designClient(n int, seed int64) *designClient {
	rng := rand.New(rand.NewSource(seed))
	d := &designClient{
		prefix:     fmt.Sprintf("design%d", n),
		eps:        p.episodes,
		deck:       newDeck(len(p.episodes), rng.Int63()),
		sharedDeck: newDeck(len(p.episodes), rng.Int63()),
		originator: originators(p.corpus),
		book:       p.book,
		acked:      p.acked,
	}
	if p.designPrefix == "" {
		p.designPrefix = d.prefix
	}
	for _, sc := range p.corpus {
		var origins []string
		for party := range d.originator[sc.Name] {
			origins = append(origins, party)
		}
		sort.Strings(origins)
		p.addChor(chorID(d.prefix, sc), sc, population(sc, origins, popCopies))
		p.addChor(chorID("shared", sc), sc, nil)
	}
	return d
}

// runtimeClient builds a client streaming into the prefix-named copy of
// every scenario, leaving out the instances of skip's parties; with
// migrate it also migrates the migrate-only copies.
func (p *plan) runtimeClient(n int, prefix string, skip map[string]map[string]bool, migrate bool, seed int64) *runtimeClient {
	rng := rand.New(rand.NewSource(seed))
	r := &runtimeClient{n: n, prefix: prefix, corpus: p.corpus, book: p.book, acked: p.acked,
		deck: newDeck(len(p.corpus), rng.Int63())}
	for _, sc := range p.corpus {
		var insts []scenario.Instance
		for _, in := range sc.Instances {
			if !skip[sc.Name][in.Party] {
				insts = append(insts, in)
			}
		}
		r.insts = append(r.insts, insts)
		p.addChor(chorID(prefix, sc), sc, nil)
		if !migrate {
			continue
		}
		var parties []string
		for _, pr := range sc.Parties {
			if len(sc.InstancesOf(pr.Owner)) > 0 {
				parties = append(parties, pr.Owner)
				r.migTargets = append(r.migTargets, migTarget{sc: sc, party: pr.Owner})
			}
		}
		p.addChor(chorID("migrate", sc), sc, population(sc, parties, popCopies))
	}
	if migrate {
		r.migDeck = newDeck(len(r.migTargets), rng.Int63())
	}
	return r
}

// provision creates every choreography of the plan through a and
// records its starting state as acked.
func (p *plan) provision(ctx context.Context, a api) error {
	for _, c := range p.chors {
		if err := a.provision(ctx, c.id, c.sc, c.pop); err != nil {
			return err
		}
		var parties []string
		for _, pr := range c.sc.Parties {
			parties = append(parties, pr.Owner)
		}
		p.acked.provisioned(c.id, parties, c.pop)
		p.book.expect(c.id, 1, true)
	}
	return nil
}

// populationSize counts the seeded instances migrate scans.
func (p *plan) populationSize() int {
	n := 0
	for _, c := range p.chors {
		for _, insts := range c.pop {
			n += len(insts)
		}
	}
	return n
}

// window runs the clients closed-loop until d has passed, taking turns
// on one goroutine: client i takes a step through apis[i], then the
// next client takes one, so exactly one request is in flight. Load
// that needs at most one core at a time keeps the latencies from
// measuring how the scheduler shares two vCPUs among the clients, the
// server and whatever else runs on the machine. The window returns one
// recorder per client, pairing every completed request with a round
// trip to ref when ref is not nil; the first oracle mismatch stops it
// and is returned.
func window(ctx context.Context, apis []api, clients []client, d time.Duration, ref *reference) ([]*recorder, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, len(clients))
	for i := range recs {
		recs[i] = newRecorder(ref)
	}
	for time.Now().Before(deadline) {
		for i, c := range clients {
			if err := c.step(ctx, apis[i], recs[i]); err != nil {
				return recs, time.Since(start), err
			}
		}
	}
	return recs, time.Since(start), nil
}

// runProbe runs the plan's side probe alone for d.
func (p *plan) runProbe(ctx context.Context, a api, d time.Duration, ref *reference) (*recorder, time.Duration, error) {
	if p.probe == nil {
		return newRecorder(ref), 0, nil
	}
	recs, elapsed, err := window(ctx, []api{a}, []client{p.probe}, d, ref)
	return recs[0], elapsed, err
}

// designClient runs the paper's schema-evolution loop on its own copy
// of every scenario: evolve an episode, what-if migrate the
// originator's population, commit, check, revert with PUT party, check
// again; then one more what-if evolve on the unmodified shared copy.
type designClient struct {
	prefix     string
	eps        []*episode
	deck       *deck
	sharedDeck *deck
	originator map[string]map[string]bool
	book       *book
	acked      *acked
	// owed is the committed change still to revert after a failed
	// request.
	owed *episode
}

func (c *designClient) step(ctx context.Context, a api, rec sink) error {
	if c.owed != nil {
		if err := c.revert(ctx, a, rec, c.owed); err != nil || c.owed != nil {
			return err
		}
	}
	ep := c.eps[c.deck.deal()]
	own := chorID(c.prefix, ep.sc)

	t0 := rec.begin()
	evo, err := a.evolve(ctx, own, ep)
	rec.end("evolve", t0, err)
	if err != nil {
		return nil
	}
	if err := checkEvolve(ep.ep, evo); err != nil {
		return err
	}
	t0 = rec.begin()
	m, err := a.migrate(ctx, own, ep.ep.Party, evo)
	rec.end("migrate", t0, err)
	if err != nil {
		return nil
	}
	if err := checkCounts(own+"/"+ep.ep.Name, whatIfCounts(ep.sc, ep.ep, popCopies), m); err != nil {
		return err
	}
	c.book.expect(own, evo.base+1, !variant(ep.ep))
	c.book.expect(own, evo.base+2, true)
	t0 = rec.begin()
	v, err := a.commit(ctx, evo)
	rec.end("commit", t0, err)
	if err != nil {
		return nil
	}
	if v != evo.base+1 {
		return fmt.Errorf("commit %s: version %d, want %d", own, v, evo.base+1)
	}
	c.acked.bumped(own, v, ep.ep.Party, c.acked.partyVersion(own, ep.ep.Party)+1)
	c.owed = ep
	if err := c.check(ctx, a, rec, own); err != nil {
		return err
	}
	if err := c.revert(ctx, a, rec, ep); err != nil || c.owed != nil {
		return err
	}
	if err := c.check(ctx, a, rec, own); err != nil {
		return err
	}

	sh := c.eps[c.sharedDeck.deal()]
	t0 = rec.begin()
	evo, err = a.evolve(ctx, chorID("shared", sh.sc), sh)
	rec.end("evolve", t0, err)
	if err != nil {
		return nil
	}
	return checkEvolve(sh.ep, evo)
}

func (c *designClient) check(ctx context.Context, a api, rec sink, chor string) error {
	t0 := rec.begin()
	out, err := a.check(ctx, chor)
	rec.end("check", t0, err)
	if err != nil {
		return nil
	}
	return c.book.verify(chor, out)
}

// revert puts the originator's scripted process back, which publishes
// the next snapshot version and the party's next version.
func (c *designClient) revert(ctx context.Context, a api, rec sink, ep *episode) error {
	own := chorID(c.prefix, ep.sc)
	party := ep.ep.Party
	want := c.acked.partyVersion(own, party) + 1
	t0 := rec.begin()
	pv, err := a.putParty(ctx, own, ep.sc.Party(party))
	rec.end("revert", t0, err)
	if err != nil {
		return nil
	}
	if pv != want {
		return fmt.Errorf("revert %s/%s: party version %d, want %d", own, party, pv, want)
	}
	c.acked.revertedTo(own, party, pv)
	c.owed = nil
	return nil
}

// runtimeClient runs the run-time path: ingest a batch of events of
// fresh instances from the scripted traces, check the choreography it
// streams into, and, when it has migrate targets, migrate a fixed
// population with no candidate. Each round of instances is streamed in
// two batches, so instances live across batches and a commit landing
// in between migrates them online.
type runtimeClient struct {
	n          int
	prefix     string
	corpus     []*scenario.Scenario
	insts      [][]scenario.Instance // per scenario, the instances streamed
	deck       *deck
	migTargets []migTarget
	migDeck    *deck
	book       *book
	acked      *acked

	round   int
	sc      int // scenario of the current round
	pending []ingest.Event
	seen    map[string]bool // instances of the current round already acked
}

type migTarget struct {
	sc    *scenario.Scenario
	party string
}

// sampleEvery picks which rounds' instances join the streamed-status
// sample.
const sampleEvery = 64

func (c *runtimeClient) step(ctx context.Context, a api, rec sink) error {
	batch := c.pending
	first := batch == nil
	if first {
		c.round++
		c.sc = c.deck.deal()
		evs := scenario.Events(c.insts[c.sc], c.suffix())
		batch = make([]ingest.Event, len(evs))
		for i, ev := range evs {
			batch[i] = ingest.Event{Party: ev.Party, Instance: ev.Instance, Label: ev.Label}
		}
		half := len(batch) / 2
		batch, c.pending = batch[:half], batch[half:]
		c.seen = map[string]bool{}
	} else {
		c.pending = nil
	}
	chor := chorID(c.prefix, c.corpus[c.sc])
	t0 := rec.begin()
	err := a.ingest(ctx, chor, batch)
	rec.end("ingest", t0, err)
	if err != nil {
		c.pending = nil
	} else {
		rec.addEvents(len(batch))
		c.ackBatch(chor, batch, !first)
	}

	t0 = rec.begin()
	out, err := a.check(ctx, chor)
	rec.end("check", t0, err)
	if err == nil {
		if err := c.book.verify(chor, out); err != nil {
			return err
		}
	}

	if c.migDeck == nil {
		return nil
	}
	mt := c.migTargets[c.migDeck.deal()]
	mchor := chorID("migrate", mt.sc)
	t0 = rec.begin()
	m, err := a.migrate(ctx, mchor, mt.party, nil)
	rec.end("migrate", t0, err)
	if err != nil {
		return nil
	}
	return checkCounts(mchor+"/"+mt.party, baseCounts(mt.sc, mt.party, popCopies), m)
}

func (c *runtimeClient) suffix() string { return fmt.Sprintf("~%d.%d", c.n, c.round) }

// ackBatch counts the instances an acked batch created, and once a
// sampled round is complete adds its instances to the streamed sample.
func (c *runtimeClient) ackBatch(chor string, batch []ingest.Event, last bool) {
	created := map[string]int{}
	for _, ev := range batch {
		k := ev.Party + "\x00" + ev.Instance
		if !c.seen[k] {
			c.seen[k] = true
			created[ev.Party]++
		}
	}
	for party, n := range created {
		c.acked.created(chor, party, n)
	}
	if !last || c.round%sampleEvery != 1 {
		return
	}
	for _, in := range c.insts[c.sc] {
		c.acked.addSample(streamed{chor: chor, party: in.Party, id: in.ID + c.suffix(), trace: in.Trace, status: in.Status})
	}
}
