package choreo

import (
	"context"

	"repro/internal/paperrepro"
)

// The paper's procurement scenario (Sec. 2) as ready-made fixtures:
// buyer (party "B"), accounting ("A") and logistics ("L"), plus the
// three change operations of the evaluation scenarios. The examples
// and benchmarks build on these.

// PaperRegistry returns the WSDL registry of the paper scenario.
func PaperRegistry() *Registry { return paperrepro.Registry() }

// PaperBuyer returns the buyer private process (paper Fig. 3).
func PaperBuyer() *Process { return paperrepro.BuyerProcess() }

// PaperAccounting returns the accounting private process (paper
// Fig. 2).
func PaperAccounting() *Process { return paperrepro.AccountingProcess() }

// PaperLogistics returns the logistics private process (inferred from
// paper Figs. 1 and 8b).
func PaperLogistics() *Process { return paperrepro.LogisticsProcess() }

// PaperChoreography is the ID under which PaperScenario stores the
// procurement choreography.
const PaperChoreography = "procurement"

// PaperScenario returns an in-memory store holding the three-party
// choreography of paper Fig. 1 under PaperChoreography, registered as
// one commit with logistics parcel tracking marked synchronous.
func PaperScenario() (*ChoreographyStore, error) {
	ctx := context.Background()
	st := NewChoreographyStore()
	if err := st.Create(ctx, PaperChoreography, paperrepro.SyncOps); err != nil {
		return nil, err
	}
	parties := []*Process{PaperBuyer(), PaperAccounting(), PaperLogistics()}
	if _, err := st.PutParties(ctx, PaperChoreography, parties, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// PaperOrderTwoChange returns the invariant additive change of paper
// Sec. 5.1 (accept an alternative order format).
func PaperOrderTwoChange() ChangeOperation { return paperrepro.OrderTwoChange() }

// PaperCancelChange returns the variant additive change of paper
// Sec. 5.2 (credit check with a cancel alternative).
func PaperCancelChange() ChangeOperation { return paperrepro.CancelChange() }

// PaperTrackingLimitChange returns the variant subtractive change of
// paper Sec. 5.3 (at most one parcel-tracking round).
func PaperTrackingLimitChange() ChangeOperation { return paperrepro.TrackingLimitChange() }

// Fig5PartyA returns the left aFSA of the paper's Fig. 5 worked
// example (msg0/msg2 optional).
func Fig5PartyA() *Automaton { return paperrepro.Fig5PartyA() }

// Fig5PartyB returns the right aFSA of Fig. 5 (msg1/msg2 mandatory).
func Fig5PartyB() *Automaton { return paperrepro.Fig5PartyB() }
