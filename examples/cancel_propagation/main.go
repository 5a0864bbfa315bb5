// Command cancel_propagation replays the paper's variant *additive*
// change scenario (Sec. 5.2, Figs. 11–14): the accounting department
// introduces an order-cancellation option; the framework detects that
// the change breaks consistency with the buyer, plans the propagation
// and suggests the buyer adaptation (widening the delivery receive
// into a pick), which is then applied and verified.
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

	// The change: wrap the accounting tail into a credit-check switch
	// with a cancel alternative (paper Fig. 11).
	op := choreo.PaperCancelChange()
	fmt.Printf("applying change: %s\n\n", op)

	evo, err := st.Evolve(ctx, id, "A", op)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("public process changed: %v\n", evo.PublicChanged)
	for _, im := range evo.Impacts {
		if !im.ViewChanged {
			fmt.Printf("partner %s: view unchanged — nothing to do\n", im.Partner)
			continue
		}
		fmt.Printf("partner %s: %s, %s\n", im.Partner, im.Classification.Kind, im.Classification.Scope)
	}

	// The buyer impact is variant: propagation needed (paper Fig. 12).
	buyer, _ := evo.Impact("B")
	fmt.Println("\n=== Buyer view after the change (paper Fig. 12a) ===")
	fmt.Print(buyer.NewView.DebugString())

	plan := buyer.Plans[0]
	fmt.Println("\n=== Added sequences A'' = τ_B(A') \\ B (paper Fig. 13a) ===")
	fmt.Print(plan.Diff.DebugString())
	fmt.Println("\n=== Adapted buyer public B' = A'' ∪ B (paper Fig. 13b) ===")
	fmt.Print(plan.NewPartnerPublic.DebugString())

	fmt.Println("\n=== Located regions and suggestions (steps 3–4) ===")
	for _, r := range plan.Regions {
		fmt.Println(" region:", r)
	}
	for _, s := range buyer.Suggestions {
		fmt.Println(" suggestion:", s)
	}

	// Commit the change, apply the executable suggestion (paper
	// Fig. 14) to the buyer version it was computed against, and
	// verify (step 5).
	if _, err := st.CommitEvolution(ctx, evo); err != nil {
		log.Fatal(err)
	}
	snap, err := st.ApplyOps(ctx, id, "B", choreo.ExecutableSuggestions(buyer.Suggestions), evo.PartnerVersions["B"])
	if err != nil {
		log.Fatal(err)
	}
	newBuyer, _ := snap.Party("B")
	fmt.Println("\n=== Buyer private process after propagation (paper Fig. 14) ===")
	fmt.Print(newBuyer.Private)

	pair, err := st.CheckPair(ctx, id, "A", "B")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbilaterally consistent again: %v\n", pair.Consistent)

	// Re-check the whole choreography.
	check, err := st.Check(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Final choreography ===")
	fmt.Print(check)
}
