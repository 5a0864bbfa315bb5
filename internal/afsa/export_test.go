package afsa

// Test-only hooks for the external corpus test (corpus_test.go).
var (
	RefEquivalent = refEquivalent
	RefRenumber   = refRenumber
	Identical     = identical
)
