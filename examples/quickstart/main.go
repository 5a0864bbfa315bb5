// Command quickstart walks through the core of the framework on the
// paper's procurement scenario (Sec. 2): derive public processes from
// private BPEL, inspect the mapping table (Table 1), check bilateral
// consistency, and execute the choreography exhaustively to confirm
// deadlock freedom.
package main

import (
	"context"
	"fmt"
	"log"

	choreo "repro"
)

func main() {
	reg := choreo.PaperRegistry()

	// 1. Private processes (paper Figs. 2 and 3).
	buyer := choreo.PaperBuyer()
	accounting := choreo.PaperAccounting()
	logistics := choreo.PaperLogistics()
	fmt.Println("=== Private processes ===")
	fmt.Print(buyer)
	fmt.Println()

	// 2. Public process generation (Sec. 3.3): the buyer's public
	// aFSA of Fig. 6 and the mapping table of Table 1.
	pub, err := choreo.DerivePublic(buyer, reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Buyer public process (paper Fig. 6) ===")
	fmt.Print(pub.Automaton.DebugString())
	fmt.Println("=== Buyer mapping table (paper Table 1) ===")
	fmt.Print(pub.Table)
	fmt.Println()

	// 3. Views and bilateral consistency (Secs. 3.2, 3.4).
	accPub, err := choreo.DerivePublic(accounting, reg)
	if err != nil {
		log.Fatal(err)
	}
	buyerView := accPub.Automaton.View("B") // paper Fig. 8a
	ok, err := choreo.Consistent(buyerView, pub.Automaton.View("A"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buyer ↔ accounting consistent: %v\n", ok)

	// 4. The whole choreography at once, held by the store.
	st, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}
	report, err := st.Check(context.Background(), choreo.PaperChoreography)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Choreography consistency ===")
	fmt.Print(report)

	// 5. Execute it: exhaustive exploration must find no deadlock
	// (the property bilateral consistency guarantees, Sec. 3.2).
	logPub, err := choreo.DerivePublic(logistics, reg)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := choreo.NewSystem(map[string]*choreo.Automaton{
		"B": pub.Automaton,
		"A": accPub.Automaton,
		"L": logPub.Automaton,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := sys.Explore(0)
	fmt.Printf("\n=== Execution ===\nglobal states explored: %d\ncompletions: %d\ndeadlock free: %v\n",
		res.States, res.Completions, res.DeadlockFree())
}
