// Command tracking_limit replays the paper's variant *subtractive*
// change scenario (Sec. 5.3, Figs. 15–18): the accounting department
// bounds parcel tracking to at most one round; the buyer's unlimited
// tracking loop becomes inconsistent and is replaced, via the
// suggestion engine, by its bounded unrolling.
package main

import (
	"context"
	"fmt"
	"log"

	choreo "repro"
)

func main() {
	ctx := context.Background()
	const id = choreo.PaperChoreography
	st, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}

	op := choreo.PaperTrackingLimitChange()
	fmt.Printf("applying change: %s\n\n", op)

	evo, err := st.Evolve(ctx, id, "A", op)
	if err != nil {
		log.Fatal(err)
	}
	for _, im := range evo.Impacts {
		fmt.Printf("partner %s: view changed=%v", im.Partner, im.ViewChanged)
		if im.ViewChanged {
			fmt.Printf(" — %s, %s", im.Classification.Kind, im.Classification.Scope)
		}
		fmt.Println()
	}

	buyer, _ := evo.Impact("B")
	fmt.Println("\n=== Buyer view after the change (paper Fig. 16a) ===")
	fmt.Print(buyer.NewView.DebugString())

	plan := buyer.Plans[0]
	fmt.Println("\n=== Removed sequences (paper Fig. 17a) accept e.g. two tracking rounds ===")
	fmt.Println("states:", plan.Diff.NumStates())
	fmt.Println("\n=== Adapted buyer public (paper Fig. 17b) ===")
	fmt.Print(plan.NewPartnerPublic.DebugString())

	fmt.Println("\n=== Regions (the paper points at While:tracking) ===")
	for _, r := range plan.Regions {
		fmt.Println(" region:", r)
	}
	for _, s := range buyer.Suggestions {
		fmt.Println(" suggestion:", s)
	}

	if _, err := st.CommitEvolution(ctx, evo); err != nil {
		log.Fatal(err)
	}
	snap, err := st.ApplyOps(ctx, id, "B", choreo.ExecutableSuggestions(buyer.Suggestions), evo.PartnerVersions["B"])
	if err != nil {
		log.Fatal(err)
	}
	newBuyer, _ := snap.Party("B")
	fmt.Println("\n=== Buyer private process after propagation (paper Fig. 18) ===")
	fmt.Print(newBuyer.Private)

	pair, err := st.CheckPair(ctx, id, "A", "B")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbilaterally consistent again: %v\n", pair.Consistent)

	// The logistics partner needs no adaptation: its tracking loop is
	// a pick (external choice), so the bounded accounting process
	// never violates a logistics-mandatory alternative.
	logistics, _ := evo.Impact("L")
	fmt.Printf("logistics: %s, %s — no propagation required\n",
		logistics.Classification.Kind, logistics.Classification.Scope)

	check, err := st.Check(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Final choreography ===")
	fmt.Print(check)
}
