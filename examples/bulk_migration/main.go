// Command bulk_migration demonstrates the bulk instance-migration
// engine end to end on the paper's procurement scenario: thousands of
// running conversations are recorded for every party, accounting
// commits the Sec. 5.3 tracking-limit change, and a single sweep
// classifies the whole population — moving compliant instances to the
// committed schema and reporting the long-tracking stragglers the
// subtractive change strands.
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
	// PaperScenario registers the whole scenario as one change
	// transaction.
	st, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic production population: 2000 running conversations
	// per party under the unbounded-tracking schema.
	for i, party := range []string{"B", "A", "L"} {
		if _, err := st.SampleInstances(ctx, id, party, int64(i+1), 2000, 12); err != nil {
			log.Fatal(err)
		}
	}

	// Accounting bounds the tracking loop (subtractive, variant) and
	// commits under optimistic concurrency.
	evo, err := st.Evolve(ctx, id, "A", choreo.PaperTrackingLimitChange())
	if err != nil {
		log.Fatal(err)
	}
	snap, err := st.CommitEvolution(ctx, evo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed tracking limit: %s at version %d\n", id, snap.Version)

	// One sweep over all 6000 instances, 8 workers over the instance
	// shards; no choreography-wide lock is held at any point.
	job, err := st.MigrateAll(ctx, id, 8)
	if err != nil {
		log.Fatal(err)
	}
	v := job.Snapshot()
	fmt.Printf("job %s: %s (%d/%d shards)\n", v.ID, v.Status, v.ShardsDone, v.Shards)
	fmt.Printf("%d instances: %d migrated, %d non-replayable, %d unviable\n",
		v.Total, v.Migratable, v.NonReplayable, v.Unviable)

	// The stranded report names every instance pinned to the old
	// schema, sorted by (party, id).
	stranded := job.Stranded()
	for _, s := range stranded[:min(5, len(stranded))] {
		fmt.Printf("  stranded %s/%s: %s\n", s.Party, s.ID, s.Status)
	}
	if len(stranded) > 5 {
		fmt.Printf("  ... and %d more\n", len(stranded)-5)
	}

	// Idempotence: the job identity is (choreography, version), so a
	// second sweep returns the finished report without re-classifying.
	again, err := st.MigrateAll(ctx, id, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-running the migration is a no-op: same job = %v\n", again == job)
}
