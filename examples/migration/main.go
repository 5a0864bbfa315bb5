// Command migration demonstrates the instance-migration extension
// (paper Sec. 8 / ADEPT line of work): running buyer conversations are
// classified against the bounded-tracking schema produced by the
// subtractive propagation scenario. Fresh and single-round instances
// migrate; instances that already tracked twice are blocked.
package main

import (
	"context"
	"fmt"
	"log"

	choreo "repro"
)

func main() {
	reg := choreo.PaperRegistry()

	oldPub, err := choreo.DerivePublic(choreo.PaperBuyer(), reg)
	if err != nil {
		log.Fatal(err)
	}

	// Evolve the choreography: accounting bounds tracking, the buyer
	// adaptation is applied (Sec. 5.3 flow), yielding the new buyer
	// schema.
	ctx := context.Background()
	const id = choreo.PaperChoreography
	st, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}
	evo, err := st.Evolve(ctx, id, "A", choreo.PaperTrackingLimitChange())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := st.CommitEvolution(ctx, evo); err != nil {
		log.Fatal(err)
	}
	buyerImpact, _ := evo.Impact("B")
	snap, err := st.ApplyOps(ctx, id, "B", choreo.ExecutableSuggestions(buyerImpact.Suggestions), evo.PartnerVersions["B"])
	if err != nil {
		log.Fatal(err)
	}
	newBuyer, _ := snap.Party("B")
	fmt.Printf("new buyer schema: %q (%d states)\n\n", newBuyer.Private.Name, newBuyer.Public.NumStates())

	// Sample running instances of the OLD schema and migrate them.
	instances := choreo.SampleInstances(oldPub.Automaton, 2026, 1000, 12)
	rep, err := choreo.MigrateInstances(instances, newBuyer.Public)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instances:      %d\n", rep.Total)
	fmt.Printf("migratable:     %d (%.1f%%)\n", rep.Migratable, 100*rep.MigratableFraction())
	fmt.Printf("non-replayable: %d\n", rep.NonReplayable)
	fmt.Printf("unviable:       %d\n", rep.Unviable)

	// Show one concrete instance of each outcome.
	shown := map[choreo.MigrationStatus]bool{}
	for _, inst := range instances {
		status, err := choreo.CheckInstance(inst, newBuyer.Public)
		if err != nil {
			log.Fatal(err)
		}
		if !shown[status] {
			shown[status] = true
			fmt.Printf("\n%s example (%s): %s", status, inst.ID, choreo.Word(inst.Trace))
		}
	}
	fmt.Println()
}
