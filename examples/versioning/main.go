// Command versioning demonstrates the co-existence of choreography
// schema versions (paper Sec. 8): the buyer evolves through the
// Sec. 5.3 propagation, running instances are migrated where
// compliant, and the rest keep executing on the old version. A
// decentralized negotiation introduces the change across partners
// first.
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"

	choreo "repro"
)

func main() {
	reg := choreo.PaperRegistry()

	// Version 0: the original buyer.
	v0, err := choreo.DerivePublic(choreo.PaperBuyer(), reg)
	if err != nil {
		log.Fatal(err)
	}
	history, err := choreo.NewVersionHistory("B", choreo.PaperBuyer(), v0.Automaton)
	if err != nil {
		log.Fatal(err)
	}

	// The accounting department proposes the tracking-limit change via
	// the decentralized negotiation protocol; the buyer's adapter runs
	// the framework's own propagation pipeline.
	ctx := context.Background()
	st, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}
	evo, err := st.Evolve(ctx, choreo.PaperChoreography, "A", choreo.PaperTrackingLimitChange())
	if err != nil {
		log.Fatal(err)
	}
	snap, err := st.Snapshot(ctx, choreo.PaperChoreography)
	if err != nil {
		log.Fatal(err)
	}
	buyerParty, _ := snap.Party("B")
	logisticsParty, _ := snap.Party("L")
	buyerImpact, _ := evo.Impact("B")
	// The adapter previews the adapted buyer without committing it:
	// the negotiation decides whether the change goes ahead.
	var adaptedBuyer *choreo.Process
	adapter := func(party string, newView *choreo.Automaton) (*choreo.Automaton, bool) {
		if party != "B" {
			return nil, false
		}
		ops := choreo.ExecutableSuggestions(buyerImpact.Suggestions)
		proc, err := choreo.Composite{Ops: ops}.Apply(buyerParty.Private)
		if err != nil {
			return nil, false
		}
		res, err := choreo.DerivePublic(proc, reg)
		if err != nil {
			return nil, false
		}
		adaptedBuyer = proc
		return res.Automaton, true
	}

	partners := []choreo.DecentralNode{
		{Party: "B", Public: buyerParty.Public},
		{Party: "L", Public: logisticsParty.Public},
	}
	views := map[string]*choreo.Automaton{
		"B": evo.NewPublic.View("B"),
		"L": evo.NewPublic.View("L"),
	}
	neg, err := choreo.NegotiateChange("A", views, partners, adapter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiation committed: %v (messages: %d)\n", neg.Committed, neg.Messages)
	for _, p := range slices.Sorted(maps.Keys(neg.Votes)) {
		fmt.Printf("  %s: %v\n", p, neg.Votes[p])
	}
	if !neg.Committed {
		log.Fatal("negotiation aborted")
	}

	// Version 1: the adapted buyer.
	newPub, err := choreo.DerivePublic(adaptedBuyer, reg)
	if err != nil {
		log.Fatal(err)
	}
	v1, err := history.Add(0, "bound tracking (Sec. 5.3 propagation)", adaptedBuyer, newPub.Automaton)
	if err != nil {
		log.Fatal(err)
	}

	// Running instances, pinned to v0.
	mgr := choreo.NewVersionManager(history)
	for _, inst := range choreo.SampleInstances(v0.Automaton, 11, 500, 12) {
		if err := mgr.Start(inst, 0); err != nil {
			log.Fatal(err)
		}
	}

	out, err := mgr.MigrateAll(v1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmigration to v%d:\n", v1)
	fmt.Printf("  migrated:                %d\n", out.Migrated)
	fmt.Printf("  kept on v0 (replay):     %d\n", out.RemainingNonReplayable)
	fmt.Printf("  kept on v0 (viability):  %d\n", out.RemainingUnviable)
	fmt.Printf("  residents per version:   %v\n", out.PerVersion)
	fmt.Printf("\nco-existence: %d instances still run on v0, %d on v%d\n",
		len(mgr.OnVersion(0)), len(mgr.OnVersion(v1)), v1)
}
