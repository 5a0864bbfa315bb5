package core

import (
	"context"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// PartnerImpact describes the effect of a change on one partner.
type PartnerImpact struct {
	Partner string
	// ViewChanged reports whether the partner's view of the
	// originator changed at all; when false nothing else is set
	// ("change effects can be kept local", Sec. 3.1).
	ViewChanged bool
	// Classification is the two-dimensional classification of the
	// view change (Defs. 5/6).
	Classification Classification
	// OldView/NewView are the partner's views of the originator's
	// public process before and after the change.
	OldView, NewView *afsa.Automaton
	// Plans are the propagation plans (nil for invariant changes).
	Plans []*Plan
	// Suggestions are ready-to-review private adaptations per plan.
	Suggestions []Suggestion
}

// NeedsPropagation reports whether any partner requires propagation
// (some impact is variant).
func NeedsPropagation(impacts []PartnerImpact) bool {
	for _, im := range impacts {
		if im.ViewChanged && im.Classification.Scope == ScopeVariant {
			return true
		}
	}
	return false
}

// Partner is the current state of one party, as Impacts reads it.
type Partner struct {
	Private *bpel.Process
	Public  *afsa.Automaton
	Table   mapping.Table
	// Alphabet is Public's alphabet.
	Alphabet label.Set
}

// Parties is the choreography a change is analyzed against, before
// the change.
type Parties interface {
	// PartnersOf returns the registered parties that exchange
	// messages with party, sorted.
	PartnersOf(party string) []string
	// Partner returns a registered party's state.
	Partner(name string) Partner
	// View returns τ_forParty of party of's public process; an
	// implementation may memoize it.
	View(of, forParty string) *afsa.Automaton
}

// Impacts is the per-partner half of the controlled-evolution loop
// (paper Fig. 4). Given the originator's public process before and
// after a change, it reports whether the public process changed and,
// if so, classifies the change for every partner (Defs. 5/6) and, for
// variant changes, computes propagation plans and adaptation
// suggestions (Secs. 5.1–5.3) validated against reg. ctx is checked
// before each partner.
func Impacts(ctx context.Context, c Parties, party string, oldPublic, newPublic *afsa.Automaton, reg *wsdl.Registry) (publicChanged bool, impacts []PartnerImpact, err error) {
	if afsa.Equivalent(oldPublic, newPublic) {
		return false, nil, nil
	}
	for _, name := range c.PartnersOf(party) {
		if err := ctx.Err(); err != nil {
			return true, nil, err
		}
		impact := PartnerImpact{Partner: name, OldView: c.View(party, name), NewView: newPublic.View(name)}
		impact.ViewChanged = !afsa.Equivalent(impact.OldView, impact.NewView)
		if !impact.ViewChanged {
			impacts = append(impacts, impact)
			continue
		}
		impact.Classification, err = Classify(impact.OldView, impact.NewView, c.View(name, party))
		if err != nil {
			return true, nil, err
		}
		if impact.Classification.Scope == ScopeVariant {
			if err := impact.plan(party, c.Partner(name), reg); err != nil {
				return true, nil, err
			}
		}
		impacts = append(impacts, impact)
	}
	return true, impacts, nil
}

// plan runs steps 1–3 of Secs. 5.2/5.3 against a partner, using the
// partner's *full* public process so the hints stay in the mapping
// table's state space. For subtractive planning the new view is lifted
// over the partner's foreign labels (conversations with third parties
// are unconstrained by this change).
func (impact *PartnerImpact) plan(party string, partner Partner, reg *wsdl.Registry) error {
	foreign := label.NewSet()
	for l := range partner.Alphabet {
		if !l.Involves(party) {
			foreign.Add(l)
		}
	}
	if impact.Classification.Kind.Additive() {
		p, err := PlanAdditive(impact.NewView, partner.Public, partner.Table)
		if err != nil {
			return err
		}
		impact.Plans = append(impact.Plans, p)
	}
	if impact.Classification.Kind.Subtractive() {
		view := impact.NewView
		if len(foreign) > 0 {
			view = LiftForeign(view, foreign)
		}
		p, err := PlanSubtractive(view, partner.Public, partner.Table)
		if err != nil {
			return err
		}
		impact.Plans = append(impact.Plans, p)
	}
	sugg := &Suggester{Private: partner.Private, Registry: reg}
	for _, p := range impact.Plans {
		impact.Suggestions = append(impact.Suggestions, sugg.Suggest(p)...)
	}
	return nil
}
