package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/label"
	"repro/internal/wsdl"
)

// Suggestion is one proposed adaptation of the partner's private
// process. Since partner processes are autonomous the framework never
// applies suggestions silently (paper Sec. 3.1: "an automatic
// adaptation of private processes is generally not desired.
// Nevertheless the system should adequately assist process
// engineers"); Op is a ready-to-apply operation the engineer can
// accept, or nil when only a textual recommendation is possible.
type Suggestion struct {
	// Description explains the adaptation in engineer terms.
	Description string
	// Op is the executable change operation (nil = manual).
	Op change.Operation
}

func (s Suggestion) String() string {
	if s.Op != nil {
		return fmt.Sprintf("%s [%s]", s.Description, s.Op)
	}
	return s.Description + " [manual]"
}

// ExecutableOps returns the operations of the suggestions that carry
// one, in order, skipping manual recommendations.
func ExecutableOps(suggestions []Suggestion) []change.Operation {
	var ops []change.Operation
	for _, s := range suggestions {
		if s.Op != nil {
			ops = append(ops, s.Op)
		}
	}
	return ops
}

// Suggester derives private-process adaptations from a propagation
// plan.
type Suggester struct {
	// Private is the partner's current private process.
	Private *bpel.Process
	// Registry resolves operation ownership and synchrony for the
	// synthesized fragments (may be nil).
	Registry *wsdl.Registry
	// MaxSynthesized bounds the size of synthesized fragments; beyond
	// it the suggestion degrades to manual. Zero means the default
	// (256 activities).
	MaxSynthesized int
}

// Suggest computes adaptations for every region of the plan
// (Secs. 5.2/5.3 step 3→4):
//
//   - an added *received* message widens an existing receive into a
//     pick, or extends an existing pick, with a branch synthesized
//     from the adapted public process B' (reproduces Fig. 14);
//   - an added *sent* message extends an enclosing switch with a case
//     synthesized from B', or falls back to a manual recommendation;
//   - a removed message inside a loop region replaces the loop block
//     by the bounded behavior synthesized from B' (reproduces
//     Fig. 18); other removals suggest deleting the affected branch.
func (s *Suggester) Suggest(plan *Plan) []Suggestion {
	var out []Suggestion
	owner := s.Private.Owner
	// Group added hints per state so one receive widens into a single
	// pick with all new alternatives.
	addedByState := map[afsa.StateID][]Hint{}
	var removed []Hint
	for _, h := range plan.Hints {
		if h.Added {
			addedByState[h.State] = append(addedByState[h.State], h)
		} else {
			removed = append(removed, h)
		}
	}
	states := make([]int, 0, len(addedByState))
	for q := range addedByState {
		states = append(states, int(q))
	}
	sort.Ints(states)
	for _, q := range states {
		out = append(out, s.suggestAdded(plan, afsa.StateID(q), addedByState[afsa.StateID(q)], owner)...)
	}
	for _, h := range removed {
		out = append(out, s.suggestRemoved(plan, h, owner))
	}
	return out
}

func (s *Suggester) suggestAdded(plan *Plan, state afsa.StateID, hints []Hint, owner string) []Suggestion {
	var received, sent []Hint
	for _, h := range hints {
		if h.Label.Receiver() == owner {
			received = append(received, h)
		} else {
			sent = append(sent, h)
		}
	}
	var out []Suggestion
	regionPaths := regionPathsFor(plan, state)

	if len(received) > 0 {
		out = append(out, s.suggestReceivedAdditions(plan, state, received, regionPaths))
	}
	for _, h := range sent {
		out = append(out, s.suggestSentAddition(plan, h, regionPaths))
	}
	return out
}

// suggestReceivedAdditions widens the receive (or pick) that handles
// the hint state's existing incoming messages.
func (s *Suggester) suggestReceivedAdditions(plan *Plan, state afsa.StateID, hints []Hint, regionPaths []bpel.Path) Suggestion {
	desc := fmt.Sprintf("support additionally receiving %s (state %d)", labelList(hints), state)

	// Branch bodies synthesized from B' after the added message.
	branches := make([]bpel.OnMessage, 0, len(hints))
	for _, h := range hints {
		body := s.synthesizeAfter(plan, state, h.Label)
		if body == nil {
			return Suggestion{Description: desc + "; continuation could not be synthesized"}
		}
		branches = append(branches, bpel.OnMessage{
			Partner: h.Label.Sender(),
			Op:      h.Label.Op(),
			Body:    body,
		})
	}

	// Prefer extending an existing pick in the region.
	if pickPath, ok := s.findInRegion(regionPaths, bpel.KindPick); ok {
		ops := make([]change.Operation, 0, len(branches))
		for _, b := range branches {
			ops = append(ops, change.AddPickBranch{Path: pickPath, Branch: b})
		}
		return Suggestion{
			Description: desc + fmt.Sprintf("; extend pick %s", pickPath),
			Op:          change.Composite{Label: "extend pick", Ops: ops},
		}
	}

	// Otherwise widen the receive that currently handles this state.
	if rcvPath, ok := s.findReceiveForState(plan, state, regionPaths); ok {
		return Suggestion{
			Description: desc + fmt.Sprintf("; widen receive %s into a pick", rcvPath),
			Op: change.ReplaceReceiveWithPick{
				Path:  rcvPath,
				Extra: branches,
			},
		}
	}
	return Suggestion{Description: desc + "; no receive or pick found in region " + pathList(regionPaths)}
}

func (s *Suggester) suggestSentAddition(plan *Plan, h Hint, regionPaths []bpel.Path) Suggestion {
	desc := fmt.Sprintf("optionally send %s (state %d)", h.Label, h.State)
	body := s.synthesizeAfter(plan, h.State, h.Label)
	if body == nil {
		return Suggestion{Description: desc + "; continuation could not be synthesized"}
	}
	caseBody := &bpel.Sequence{
		BlockName: "send " + h.Label.Op(),
		Children: []bpel.Activity{
			&bpel.Invoke{BlockName: h.Label.Op(), Partner: h.Label.Receiver(), Op: h.Label.Op(), Sync: s.isSync(h.Label)},
			body,
		},
	}
	if swPath, ok := s.findInRegion(regionPaths, bpel.KindSwitch); ok {
		return Suggestion{
			Description: desc + fmt.Sprintf("; add case to switch %s", swPath),
			Op: change.AddSwitchCase{
				Path: swPath,
				Case: bpel.Case{Cond: "new option " + h.Label.Op(), Body: caseBody},
			},
		}
	}
	return Suggestion{
		Description: desc + "; introduce a data-driven switch around region " + pathList(regionPaths),
	}
}

func (s *Suggester) suggestRemoved(plan *Plan, h Hint, owner string) Suggestion {
	regionPaths := regionPathsFor(plan, h.State)
	desc := fmt.Sprintf("stop relying on %s (state %d)", h.Label, h.State)

	// The paper's subtractive scenario: the removed behavior lives in
	// a loop — replace the loop block by the bounded behavior of B'.
	if loopPath, ok := s.findInRegion(regionPaths, bpel.KindWhile); ok {
		root, ok := plan.Counterpart[h.State]
		if ok {
			if frag := s.synthesize(plan.NewPartnerPublic, root); frag != nil {
				return Suggestion{
					Description: desc + fmt.Sprintf("; replace loop %s by its bounded unrolling", loopPath),
					Op:          change.Replace{Path: loopPath, New: frag},
				}
			}
		}
		return Suggestion{Description: desc + fmt.Sprintf("; bound loop %s manually", loopPath)}
	}

	// Otherwise: the activity emitting/receiving the removed message
	// has to go.
	if p, err := s.Private.FindFirst(func(a bpel.Activity) bool {
		return communicatesLabel(a, owner, h.Label)
	}); err == nil {
		return Suggestion{
			Description: desc + fmt.Sprintf("; delete activity %s", p),
			Op:          change.Delete{Path: p},
		}
	}
	return Suggestion{Description: desc + "; affected activity not found, adapt region " + pathList(regionPaths)}
}

// synthesizeAfter synthesizes the continuation fragment of B' after
// taking the added label from the counterpart of state.
func (s *Suggester) synthesizeAfter(plan *Plan, state afsa.StateID, l label.Label) bpel.Activity {
	root, ok := plan.Counterpart[state]
	if !ok {
		return nil
	}
	targets := plan.NewPartnerPublic.Step(root, l)
	if len(targets) != 1 {
		return nil
	}
	return s.synthesize(plan.NewPartnerPublic, targets[0])
}

// synthesize converts the acyclic part of automaton a rooted at q into
// a block-structured BPEL fragment for the suggester's process owner:
//
//   - a single outgoing message becomes a receive/invoke/reply,
//   - several received alternatives become a pick,
//   - several sent alternatives become a switch (an internal choice),
//   - a final state without continuation becomes a terminate (ending
//     the enclosing process exactly where the public process ends),
//   - a final state *with* continuation becomes a switch with an
//     empty otherwise branch (the owner may stop or continue).
//
// Cycles and oversized fragments yield nil (the suggestion then
// degrades to manual).
func (s *Suggester) synthesize(a *afsa.Automaton, q afsa.StateID) bpel.Activity {
	limit := s.MaxSynthesized
	if limit <= 0 {
		limit = 256
	}
	budget := limit
	onPath := map[afsa.StateID]bool{}
	act, ok := s.synth(a, q, onPath, &budget)
	if !ok {
		return nil
	}
	return act
}

func (s *Suggester) synth(a *afsa.Automaton, q afsa.StateID, onPath map[afsa.StateID]bool, budget *int) (bpel.Activity, bool) {
	if *budget <= 0 || onPath[q] {
		return nil, false // oversized or cyclic
	}
	*budget--
	onPath[q] = true
	defer delete(onPath, q)

	owner := s.Private.Owner
	ts := a.Transitions(q)
	final := a.IsFinal(q)
	suffix := fmt.Sprintf(" s%d", q)

	if len(ts) == 0 {
		if final {
			return &bpel.Terminate{BlockName: "end" + suffix}, true
		}
		return nil, false // dead end in the public process
	}

	branch := func(t afsa.Transition) (bpel.Activity, bool) {
		cont, ok := s.synth(a, t.To, onPath, budget)
		if !ok {
			return nil, false
		}
		act := s.commActivity(t.Label, owner, suffix)
		if act == nil {
			return nil, false
		}
		return &bpel.Sequence{
			BlockName: t.Label.Op() + suffix,
			Children:  []bpel.Activity{act, cont},
		}, true
	}

	var alternatives []bpel.Activity
	allReceived, allSent := true, true
	for _, t := range ts {
		b, ok := branch(t)
		if !ok {
			return nil, false
		}
		alternatives = append(alternatives, b)
		if t.Label.Receiver() == owner {
			allSent = false
		} else {
			allReceived = false
		}
	}

	var act bpel.Activity
	switch {
	case len(alternatives) == 1:
		act = alternatives[0]
	case allReceived:
		pick := &bpel.Pick{BlockName: "choice" + suffix}
		for i, t := range ts {
			pick.Branches = append(pick.Branches, bpel.OnMessage{
				Partner: t.Label.Sender(),
				Op:      t.Label.Op(),
				// Strip the leading receive from the branch: the pick
				// itself consumes the message.
				Body: stripLeadingComm(alternatives[i]),
			})
		}
		act = pick
	case allSent:
		// Exhaustive internal choice: the last alternative becomes the
		// otherwise branch (a switch without otherwise could fall
		// through, which the public process does not allow).
		sw := &bpel.Switch{BlockName: "choice" + suffix}
		last := len(ts) - 1
		for i := 0; i < last; i++ {
			sw.Cases = append(sw.Cases, bpel.Case{
				Cond: "option " + ts[i].Label.Op(),
				Body: alternatives[i],
			})
		}
		sw.Else = alternatives[last]
		act = sw
	default:
		return nil, false // mixed send/receive choice: not block-structurable here
	}

	if final {
		// The owner may also stop at this state.
		return &bpel.Switch{
			BlockName: "stop or continue" + suffix,
			Cases:     []bpel.Case{{Cond: "continue", Body: act}},
			Else:      &bpel.Terminate{BlockName: "stop" + suffix},
		}, true
	}
	return act, true
}

// commActivity renders the activity performing label l from the
// owner's perspective.
func (s *Suggester) commActivity(l label.Label, owner, suffix string) bpel.Activity {
	name := l.Op() + " msg" + suffix
	if l.Receiver() == owner {
		return &bpel.Receive{BlockName: name, Partner: l.Sender(), Op: l.Op()}
	}
	if l.Sender() == owner {
		// A reply answers a synchronous operation the owner provides.
		if s.Registry != nil {
			if op, ok := s.Registry.Lookup(owner, l.Op()); ok && op.Sync() {
				return &bpel.Reply{BlockName: name, Partner: l.Receiver(), Op: l.Op()}
			}
		}
		return &bpel.Invoke{BlockName: name, Partner: l.Receiver(), Op: l.Op(), Sync: s.isSync(l)}
	}
	return nil
}

// isSync reports whether l invokes a synchronous operation of its
// receiver. Synchronous operations appear in the automaton as a
// request/response transition pair; the synthesized Invoke must carry
// Sync only when the *registry* says so AND the response is folded
// into the same invoke — the synthesizer keeps request and response as
// separate transitions, so it always emits asynchronous invokes and a
// matching receive, which derives to the same automaton.
func (s *Suggester) isSync(label.Label) bool { return false }

func stripLeadingComm(a bpel.Activity) bpel.Activity {
	seq, ok := a.(*bpel.Sequence)
	if !ok || len(seq.Children) < 2 {
		return &bpel.Empty{BlockName: "done"}
	}
	rest := seq.Children[1:]
	if len(rest) == 1 {
		return rest[0]
	}
	return &bpel.Sequence{BlockName: seq.BlockName + " cont", Children: rest}
}

func communicatesLabel(a bpel.Activity, owner string, l label.Label) bool {
	switch t := a.(type) {
	case *bpel.Receive:
		return l.Receiver() == owner && t.Partner == l.Sender() && t.Op == l.Op()
	case *bpel.Invoke:
		return l.Sender() == owner && t.Partner == l.Receiver() && t.Op == l.Op()
	case *bpel.Reply:
		return l.Sender() == owner && t.Partner == l.Receiver() && t.Op == l.Op()
	}
	return false
}

// findInRegion returns the innermost region path whose addressed
// activity (or one of its ancestors listed in the region) has the
// given kind.
func (s *Suggester) findInRegion(regionPaths []bpel.Path, kind bpel.Kind) (bpel.Path, bool) {
	// Prefer longer (more specific) paths.
	sorted := append([]bpel.Path(nil), regionPaths...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) > len(sorted[j]) })
	for _, p := range sorted {
		act, err := s.Private.Find(p)
		if err == nil && act.Kind() == kind {
			return p, true
		}
	}
	return nil, false
}

// findReceiveForState locates the private Receive handling one of the
// messages the public process currently expects at state (searching
// the region subtrees first, then the whole process).
func (s *Suggester) findReceiveForState(plan *Plan, state afsa.StateID, regionPaths []bpel.Path) (bpel.Path, bool) {
	owner := s.Private.Owner
	expects := map[string]bool{} // op names received at this state
	// plan.Counterpart keys are B states; B transitions are those of
	// the *current* partner public process. Use NewPartnerPublic's
	// counterpart to look at B' minus additions: simplest is to use
	// the hint state's outgoing labels in B', minus added ones —
	// but the original receive ops are exactly the received labels
	// present in both, so read them from NewPartnerPublic at the
	// counterpart and filter to non-added below if needed.
	if root, ok := plan.Counterpart[state]; ok {
		for _, t := range plan.NewPartnerPublic.Transitions(root) {
			if t.Label.Receiver() == owner {
				expects[t.Label.Op()] = true
			}
		}
	}
	match := func(a bpel.Activity) bool {
		r, ok := a.(*bpel.Receive)
		return ok && expects[r.Op]
	}
	// Region subtrees first.
	for _, rp := range regionPaths {
		act, err := s.Private.Find(rp)
		if err != nil {
			continue
		}
		var found bpel.Path
		bpel.Walk(act, func(a bpel.Activity, sub bpel.Path) bool {
			if found != nil {
				return false
			}
			if match(a) {
				// sub starts at the region root element; region path
				// already ends with that element.
				full := append(append(bpel.Path(nil), rp[:len(rp)-1]...), sub...)
				found = full
				return false
			}
			return true
		})
		if found != nil {
			if _, err := s.Private.Find(found); err == nil {
				return found, true
			}
		}
	}
	// Whole process as fallback.
	if p, err := s.Private.FindFirst(match); err == nil {
		return p, true
	}
	return nil, false
}

func regionPathsFor(plan *Plan, state afsa.StateID) []bpel.Path {
	var out []bpel.Path
	seen := map[string]bool{}
	for _, r := range plan.Regions {
		if r.Hint.State != state {
			continue
		}
		for _, p := range r.Paths {
			if !seen[p.String()] {
				seen[p.String()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func labelList(hints []Hint) string {
	parts := make([]string, len(hints))
	for i, h := range hints {
		parts[i] = string(h.Label)
	}
	return strings.Join(parts, ", ")
}

func pathList(paths []bpel.Path) string {
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
