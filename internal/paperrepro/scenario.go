// Package paperrepro contains the complete fixtures of the paper's
// procurement scenario (Sec. 2) and the expected artifacts of every
// constructed figure and table (Figs. 5–8, 10, 12–14, 16–18, Table 1).
// The reproduction tests in this package and the benches in the
// repository root regenerate each artifact and compare it against the
// expectation.
//
// Party names follow the labels used in the paper's figures:
// "B" (buyer), "A" (accounting department), "L" (logistics
// department).
package paperrepro

import (
	"repro/internal/bpel"
	"repro/internal/wsdl"
)

// Party names as used in the paper's message labels.
const (
	Buyer      = "B"
	Accounting = "A"
	Logistics  = "L"
)

// SyncOps marks the scenario's one synchronous operation, logistics
// parcel tracking (Fig. 8b), in the "party.op" form registry inference
// takes; every other operation is asynchronous.
var SyncOps = []string{"L.getStatusLOp"}

// Registry returns the WSDL registry of the scenario: the operations
// each party provides, with getStatusLOp as the single synchronous
// operation (Sec. 2: "all operations are asynchronous except the
// synchronous getStatusOP operation provided by the logistics
// service").
func Registry() *wsdl.Registry {
	r := wsdl.NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// accBuyer port type: operations the accounting department offers
	// to the buyer.
	must(r.AddPortType(wsdl.PortType{
		Name:  "accBuyer",
		Owner: Accounting,
		Operations: []wsdl.Operation{
			{Name: "orderOp", Input: "order"},
			{Name: "order_2Op", Input: "order_2"},
			{Name: "getStatusOp", Input: "get_status"},
			{Name: "terminateOp", Input: "terminate"},
		},
	}))
	// buyer port type: operations the buyer offers.
	must(r.AddPortType(wsdl.PortType{
		Name:  "buyer",
		Owner: Buyer,
		Operations: []wsdl.Operation{
			{Name: "deliveryOp", Input: "delivery"},
			{Name: "statusOp", Input: "status"},
			{Name: "cancelOp", Input: "cancel"},
		},
	}))
	// logistics port type: operations the logistics department offers.
	must(r.AddPortType(wsdl.PortType{
		Name:  "logistics",
		Owner: Logistics,
		Operations: []wsdl.Operation{
			{Name: "deliverOp", Input: "deliver"},
			{Name: "getStatusLOp", Input: "get_statusL", Output: "statusL"},
			{Name: "terminateLOp", Input: "terminateL"},
		},
	}))
	// accLogistics port type: operations accounting offers to logistics.
	must(r.AddPortType(wsdl.PortType{
		Name:  "accLogistics",
		Owner: Accounting,
		Operations: []wsdl.Operation{
			{Name: "deliver_confOp", Input: "deliver_conf"},
		},
	}))
	must(r.AddPartnerLinkType(wsdl.PartnerLinkType{
		Name:  "accBuyerLT",
		Roles: [2]wsdl.Role{{Name: "accounting", PortType: "accBuyer"}, {Name: "buyer", PortType: "buyer"}},
	}))
	must(r.AddPartnerLinkType(wsdl.PartnerLinkType{
		Name:  "accLogisticsLT",
		Roles: [2]wsdl.Role{{Name: "accounting", PortType: "accLogistics"}, {Name: "logistics", PortType: "logistics"}},
	}))
	return r
}

// BuyerProcess returns the buyer private process of paper Fig. 3:
// send order, receive delivery, then a non-terminating parcel-tracking
// loop whose internal switch either tracks (get_status/status) or
// terminates the conversation.
func BuyerProcess() *bpel.Process {
	return &bpel.Process{
		Name:  "buyer",
		Owner: Buyer,
		PartnerLinks: []bpel.PartnerLink{
			{Name: "accBuyer", Partner: Accounting, LinkType: "accBuyerLT"},
		},
		Body: &bpel.Sequence{
			BlockName: "buyer process",
			Children: []bpel.Activity{
				&bpel.Invoke{BlockName: "order", Partner: Accounting, Op: "orderOp"},
				&bpel.Receive{BlockName: "delivery", Partner: Accounting, Op: "deliveryOp"},
				&bpel.While{
					BlockName: "tracking",
					Cond:      "1 = 1",
					Body: &bpel.Switch{
						BlockName: "termination?",
						Cases: []bpel.Case{
							{
								Cond: "continue",
								Body: &bpel.Sequence{
									BlockName: "cond continue",
									Children: []bpel.Activity{
										&bpel.Invoke{BlockName: "getStatus", Partner: Accounting, Op: "getStatusOp"},
										&bpel.Receive{BlockName: "status", Partner: Accounting, Op: "statusOp"},
									},
								},
							},
							{
								Cond: "otherwise",
								Body: &bpel.Sequence{
									BlockName: "cond terminate",
									Children: []bpel.Activity{
										&bpel.Invoke{BlockName: "terminate", Partner: Accounting, Op: "terminateOp"},
										&bpel.Terminate{BlockName: "end"},
									},
								},
							},
						},
					},
				},
			},
		},
	}
}

// AccountingProcess returns the accounting private process of paper
// Fig. 2: receive order, forward to logistics, receive confirmation,
// forward delivery to buyer, then serve parcel tracking in a
// non-terminating loop with a pick on get_status/terminate.
func AccountingProcess() *bpel.Process {
	return &bpel.Process{
		Name:  "accounting",
		Owner: Accounting,
		PartnerLinks: []bpel.PartnerLink{
			{Name: "accBuyer", Partner: Buyer, LinkType: "accBuyerLT"},
			{Name: "accLogistics", Partner: Logistics, LinkType: "accLogisticsLT"},
		},
		Body: &bpel.Sequence{
			BlockName: "accounting process",
			Children: []bpel.Activity{
				&bpel.Receive{BlockName: "order", Partner: Buyer, Op: "orderOp"},
				&bpel.Invoke{BlockName: "deliver", Partner: Logistics, Op: "deliverOp"},
				&bpel.Receive{BlockName: "deliver_conf", Partner: Logistics, Op: "deliver_confOp"},
				&bpel.Invoke{BlockName: "delivery", Partner: Buyer, Op: "deliveryOp"},
				&bpel.While{
					BlockName: "parcel tracking",
					Cond:      "1 = 1",
					Body: &bpel.Pick{
						BlockName: "request",
						Branches: []bpel.OnMessage{
							{
								Partner: Buyer,
								Op:      "getStatusOp",
								Body: &bpel.Sequence{
									BlockName: "track",
									Children: []bpel.Activity{
										&bpel.Invoke{BlockName: "getStatusL", Partner: Logistics, Op: "getStatusLOp", Sync: true},
										&bpel.Invoke{BlockName: "status", Partner: Buyer, Op: "statusOp"},
									},
								},
							},
							{
								Partner: Buyer,
								Op:      "terminateOp",
								Body: &bpel.Sequence{
									BlockName: "shutdown",
									Children: []bpel.Activity{
										&bpel.Invoke{BlockName: "terminateL", Partner: Logistics, Op: "terminateLOp"},
										&bpel.Terminate{BlockName: "end"},
									},
								},
							},
						},
					},
				},
			},
		},
	}
}

// LogisticsProcess returns the logistics private process. The paper
// describes it only through the accounting interactions (Figs. 1, 8b):
// receive deliver, confirm asynchronously, then serve synchronous
// status requests until terminated.
func LogisticsProcess() *bpel.Process {
	return &bpel.Process{
		Name:  "logistics",
		Owner: Logistics,
		PartnerLinks: []bpel.PartnerLink{
			{Name: "accLogistics", Partner: Accounting, LinkType: "accLogisticsLT"},
		},
		Body: &bpel.Sequence{
			BlockName: "logistics process",
			Children: []bpel.Activity{
				&bpel.Receive{BlockName: "deliver", Partner: Accounting, Op: "deliverOp"},
				&bpel.Invoke{BlockName: "deliver_conf", Partner: Accounting, Op: "deliver_confOp"},
				&bpel.While{
					BlockName: "serve",
					Cond:      "1 = 1",
					Body: &bpel.Pick{
						BlockName: "request",
						Branches: []bpel.OnMessage{
							{
								Partner: Accounting,
								Op:      "getStatusLOp",
								Body:    &bpel.Reply{BlockName: "statusL", Partner: Accounting, Op: "getStatusLOp"},
							},
							{
								Partner: Accounting,
								Op:      "terminateLOp",
								Body:    &bpel.Terminate{BlockName: "end"},
							},
						},
					},
				},
			},
		},
	}
}
