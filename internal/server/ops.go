package server

import (
	"repro/internal/change"
)

// OpJSON is the wire encoding of one structural change operation of a
// /v2/ evolve transaction. It is the declarative change.Spec, which
// documents the operation kinds and their fields.
type OpJSON = change.Spec

// decodeOps translates a wire op list into a change transaction.
func decodeOps(party string, ops []OpJSON) ([]change.Operation, error) {
	out, err := change.DecodeSpecs(party, ops)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return out, nil
}
