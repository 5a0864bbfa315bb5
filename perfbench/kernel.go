package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/store"
)

// The evolution kernel, timed from outside: replayEvolve re-runs the
// stages of store.Evolve (internal/store/evolve.go) through each
// stage's public function, on the same snapshot, and times each call.
// The replay must reach the same outcome as store.Evolve on every
// episode (the drift guard), and the stage times must add up to most
// of store.Evolve (kernel.coverage), so the replay cannot quietly
// diverge from the code it explains.

// kernelStages are the replayed stages, in pipeline order.
var kernelStages = []string{
	"change.apply_us", "store.infer_registry_us", "mapping.derive_us", "afsa.equivalent_us",
	"afsa.view_us", "core.classify_us", "core.plan_us", "core.suggest_us",
}

type stageTimes struct {
	d          map[string]time.Duration
	equivCalls int // afsa.Equivalent calls
}

func (s *stageTimes) timed(stage string, t0 time.Time) { s.d[stage] += time.Since(t0) }

// replayEvolve analyzes ep against the current snapshot of chor the way
// store.Evolve does, stage by stage.
func replayEvolve(ctx context.Context, st *store.Store, chor string, ep *episode) (*evolveOut, stageTimes, error) {
	times := stageTimes{d: map[string]time.Duration{}}
	snap, err := st.Snapshot(ctx, chor)
	if err != nil {
		return nil, times, err
	}
	party := ep.ep.Party
	orig, ok := snap.Party(party)
	if !ok {
		return nil, times, fmt.Errorf("%s: no party %s", chor, party)
	}

	t0 := time.Now()
	newPrivate := orig.Private
	for _, op := range ep.ops {
		if newPrivate, err = op.Apply(newPrivate); err != nil {
			return nil, times, err
		}
	}
	times.timed("change.apply_us", t0)

	procs := make([]*bpel.Process, 0, snap.NumParties())
	for _, name := range snap.Parties() {
		ps, _ := snap.Party(name)
		if name == party {
			procs = append(procs, newPrivate)
		} else {
			procs = append(procs, ps.Private)
		}
	}
	t0 = time.Now()
	reg, err := store.InferRegistry(procs, ep.sc.SyncOps)
	times.timed("store.infer_registry_us", t0)
	if err != nil {
		return nil, times, err
	}

	t0 = time.Now()
	res, err := mapping.Derive(newPrivate, reg)
	times.timed("mapping.derive_us", t0)
	if err != nil {
		return nil, times, err
	}

	out := &evolveOut{chor: chor, party: party, base: snap.Version, impacts: map[string]impact{}}
	t0 = time.Now()
	out.public = !afsa.Equivalent(orig.Public, res.Automaton)
	times.timed("afsa.equivalent_us", t0)
	times.equivCalls++
	if !out.public {
		return out, times, nil
	}
	for _, partner := range snap.PartnersOf(party) {
		t0 = time.Now()
		oldView, err := st.View(ctx, chor, party, partner)
		if err != nil {
			return nil, times, err
		}
		newView := res.Automaton.View(partner)
		times.timed("afsa.view_us", t0)

		t0 = time.Now()
		changed := !afsa.Equivalent(oldView, newView)
		times.timed("afsa.equivalent_us", t0)
		times.equivCalls++
		if !changed {
			out.impacts[partner] = impact{}
			continue
		}
		t0 = time.Now()
		partnerView, err := st.View(ctx, chor, partner, party)
		times.timed("afsa.view_us", t0)
		if err != nil {
			return nil, times, err
		}
		t0 = time.Now()
		cls, err := core.Classify(oldView, newView, partnerView)
		times.timed("core.classify_us", t0)
		if err != nil {
			return nil, times, err
		}
		out.impacts[partner] = impact{viewChanged: true, kind: cls.Kind.String(), scope: cls.Scope.String()}
		if cls.Scope != core.ScopeVariant {
			continue
		}
		pp, _ := snap.Party(partner)
		foreign := label.NewSet()
		for l := range pp.Public.Alphabet() {
			if !l.Involves(party) {
				foreign.Add(l)
			}
		}
		t0 = time.Now()
		var plans []*core.Plan
		if cls.Kind.Additive() {
			pl, err := core.PlanAdditive(newView, pp.Public, pp.Table)
			if err != nil {
				return nil, times, err
			}
			plans = append(plans, pl)
		}
		if cls.Kind.Subtractive() {
			view := newView
			if len(foreign) > 0 {
				view = core.LiftForeign(view, foreign)
			}
			pl, err := core.PlanSubtractive(view, pp.Public, pp.Table)
			if err != nil {
				return nil, times, err
			}
			plans = append(plans, pl)
		}
		times.timed("core.plan_us", t0)
		t0 = time.Now()
		sugg := &core.Suggester{Private: pp.Private, Registry: snap.Registry}
		for _, pl := range plans {
			sugg.Suggest(pl)
		}
		times.timed("core.suggest_us", t0)
	}
	return out, times, nil
}

// kernelReps is how often each episode is replayed and analyzed by
// store.Evolve; the per-stage figures are medians over the reps.
const kernelReps = 21

// kernelReport is the replay of every corpus episode.
type kernelReport struct {
	metrics map[string]float64
	lines   []string
}

// replayKernel replays every episode on the unmodified shared copies
// kernelReps times, interleaved with store.Evolve on the same
// snapshot, and checks the replay's outcome against store.Evolve's. It
// also times the candidate checker migrate builds for each episode
// (instance.NewChecker) and the per-event cost of classifying the
// originator's population through it.
func replayKernel(ctx context.Context, st *store.Store, p *plan) (*kernelReport, error) {
	sum := map[string]float64{}
	var evolveUs, checkerUs, checkNs, equivCalls []float64
	for _, ep := range p.episodes {
		chor := chorID("shared", ep.sc)
		stage := map[string][]float64{}
		var evo, chk []float64
		var equiv int
		for r := 0; r < kernelReps; r++ {
			out, times, err := replayEvolve(ctx, st, chor, ep)
			if err != nil {
				return nil, fmt.Errorf("replaying %s: %w", ep.ep.Name, err)
			}
			for _, s := range kernelStages {
				stage[s] = append(stage[s], float64(times.d[s])/float64(time.Microsecond))
			}
			equiv = times.equivCalls
			t0 := time.Now()
			got, err := st.Evolve(ctx, chor, ep.ep.Party, ep.ops...)
			evo = append(evo, float64(time.Since(t0))/float64(time.Microsecond))
			if err != nil {
				return nil, err
			}
			if err := sameOutcome(out, evolveOutOf(got)); err != nil {
				return nil, fmt.Errorf("replay drift on %s/%s: %w", ep.sc.Name, ep.ep.Name, err)
			}
			t0 = time.Now()
			c, err := instance.NewChecker(got.NewPublic)
			chk = append(chk, float64(time.Since(t0))/float64(time.Microsecond))
			if err != nil {
				return nil, err
			}
			if r == 0 {
				ns, err := classifyNsPerEvent(ctx, st, chorID(p.designPrefix, ep.sc), ep.ep.Party, c)
				if err != nil {
					return nil, err
				}
				checkNs = append(checkNs, ns)
			}
		}
		for _, s := range kernelStages {
			sum[s] += quantile(stage[s], 0.5)
		}
		evolveUs = append(evolveUs, quantile(evo, 0.5))
		checkerUs = append(checkerUs, quantile(chk, 0.5))
		equivCalls = append(equivCalls, float64(equiv))
	}
	n := float64(len(p.episodes))
	rep := &kernelReport{metrics: map[string]float64{}}
	var covered float64
	for _, s := range kernelStages {
		rep.metrics[s] = sum[s] / n
		covered += sum[s] / n
	}
	rep.metrics["kernel.evolve_us"] = mean(evolveUs)
	rep.metrics["kernel.coverage"] = covered / mean(evolveUs)
	rep.metrics["afsa.equivalent_calls"] = mean(equivCalls)
	rep.metrics["instance.new_checker_us"] = mean(checkerUs)
	rep.metrics["instance.check_ns_per_event"] = mean(checkNs)
	rep.lines = append(rep.lines, fmt.Sprintf("# kernel replay: %d episodes x %d reps, outcome equal to store.Evolve on every one; stages cover %.1f%% of store.Evolve (%.1f of %.1f us)",
		len(p.episodes), kernelReps, 100*covered/mean(evolveUs), covered, mean(evolveUs)))
	var calls float64
	for _, c := range equivCalls {
		calls += c
	}
	rep.lines = append(rep.lines, fmt.Sprintf("# afsa.Equivalent calls: %.0f over %d evolves", calls, len(p.episodes)))
	return rep, nil
}

// sameOutcome is the drift guard: the replay and store.Evolve must
// agree on publicChanged and on every partner's classification.
func sameOutcome(replay, evolve *evolveOut) error {
	if replay.public != evolve.public {
		return fmt.Errorf("publicChanged: replay %v, store %v", replay.public, evolve.public)
	}
	if len(replay.impacts) != len(evolve.impacts) {
		return fmt.Errorf("impacts: replay %v, store %v", replay.impacts, evolve.impacts)
	}
	for partner, im := range evolve.impacts {
		if replay.impacts[partner] != im {
			return fmt.Errorf("partner %s: replay %+v, store %+v", partner, replay.impacts[partner], im)
		}
	}
	return nil
}

// classifyNsPerEvent times classifying a party's recorded instances
// through an existing checker, per replayed event.
func classifyNsPerEvent(ctx context.Context, st *store.Store, chor, party string, c *instance.Checker) (float64, error) {
	insts, err := st.Instances(ctx, chor, party)
	if err != nil {
		return 0, err
	}
	events := 0
	for _, in := range insts {
		events += len(in.Trace)
	}
	if events == 0 {
		return 0, fmt.Errorf("%s/%s: no recorded events", chor, party)
	}
	const reps = 5
	var ns []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		instance.MigrateWith(insts, c)
		ns = append(ns, float64(time.Since(t0))/float64(events))
	}
	return quantile(ns, 0.5), nil
}
