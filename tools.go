package choreo

import (
	"context"
	"net/http"
	"time"

	"repro/internal/conformance"
	"repro/internal/decentral"
	"repro/internal/discovery"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/migrate"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/version"
)

// Serving layer (choreod): a sharded, versioned, cache-aware
// choreography store plus the JSON HTTP service (/v2/) and typed
// client over it.
type (
	// ChoreographyStore is the concurrent in-memory choreography
	// store: copy-on-write snapshots per choreography, memoized
	// bilateral views and a version-keyed consistency-result cache.
	// All operations take a leading context honoring cancellation.
	ChoreographyStore = store.Store
	// StoreOption configures NewChoreographyStore.
	StoreOption = store.Option
	// ChoreoClient is the typed client for the choreod /v2/ API:
	// context-first, machine-readable error codes, pagination.
	ChoreoClient = server.Client
	// EvolveOp is the wire encoding of one structural change operation
	// inside a /v2/ evolve transaction.
	EvolveOp = server.OpJSON
)

// Store construction options.
var (
	// WithStoreShards partitions the choreography ID space.
	WithStoreShards = store.WithShards
	// WithStoreCacheCap bounds the per-choreography consistency cache.
	WithStoreCacheCap = store.WithCacheCap
	// WithStoreJournal makes the store durable: mutations are written
	// ahead to a journal in the given directory and recovered on open.
	// Pass it to OpenChoreographyStore (NewChoreographyStore panics on
	// it, since recovery can fail). See docs/persistence.md.
	WithStoreJournal = store.WithJournal
	// WithStoreJournalFsync fsyncs the journal on every append
	// (durability across power loss, at per-commit latency cost).
	WithStoreJournalFsync = store.WithJournalFsync
)

// ErrStoreConflict is the store's optimistic-concurrency failure: the
// choreography advanced past the version a change was analyzed against.
var ErrStoreConflict = store.ErrConflict

// ChoreoCodeUnavailable is the choreod /v2/ error code of a degraded
// (read-only) or shutting-down service (ChoreoErrIs matches it).
const ChoreoCodeUnavailable = server.CodeUnavailable

// ChoreoErrIs reports whether err is a choreod API error with the
// given /v2/ code.
func ChoreoErrIs(err error, code string) bool { return server.ErrIs(err, code) }

// ChoreoIngestEvent is the wire shape of one observed instance event
// on the streaming ingest endpoint
// POST /v2/choreographies/{id}/instances:events (see docs/ingest.md).
type ChoreoIngestEvent = server.IngestEventJSON

// ChoreoRetryAfter extracts the backoff hint of a resource_exhausted
// (ingestion backpressure) choreod API error; ok is false when err
// carries no hint.
func ChoreoRetryAfter(err error) (time.Duration, bool) { return server.RetryAfter(err) }

// BulkMigrationJob is one choreography-wide sweep moving every tracked
// instance to the current committed snapshot
// (ChoreographyStore.MigrateAll / StartMigration, served as
// POST /v2/choreographies/{id}/migrations): idempotent and resumable,
// with a per-shard checkpoint, progress counters and a
// stranded-instance report.
type BulkMigrationJob = migrate.Job

// NewChoreographyStore returns an empty store configured by opts
// (WithStoreShards, WithStoreCacheCap).
func NewChoreographyStore(opts ...StoreOption) *ChoreographyStore { return store.New(opts...) }

// OpenChoreographyStore is NewChoreographyStore plus durability: with
// WithStoreJournal among opts it opens the journal, recovers the
// previous state (snapshot + write-ahead log tail) and write-ahead
// logs every subsequent mutation. Without a journal option it is
// equivalent to NewChoreographyStore.
func OpenChoreographyStore(opts ...StoreOption) (*ChoreographyStore, error) {
	return store.Open(opts...)
}

// NewChoreoServer returns the choreod HTTP service over st.
func NewChoreoServer(st *ChoreographyStore) *server.Server { return server.New(st) }

// NewChoreoClient returns a client for the choreod service at base;
// httpClient may be nil.
func NewChoreoClient(base string, httpClient *http.Client) *ChoreoClient {
	return server.NewClient(base, httpClient)
}

// InferRegistry builds a WSDL registry covering every operation the
// processes mention ("party.op" entries in syncOps mark synchronous
// operations) — the registry the service infers when parties register
// by XML.
func InferRegistry(procs []*Process, syncOps []string) (*Registry, error) {
	return store.InferRegistry(procs, syncOps)
}

// System is a set of parties ready for joint synchronous execution
// (the empirical substrate validating the consistency criterion).
type System = runtime.System

// NewSystem builds an executable system from public processes keyed by
// party name.
func NewSystem(parties map[string]*Automaton) (*System, error) {
	return runtime.NewSystem(parties)
}

// Service discovery (paper Sec. 6, consistency-based matchmaking).
type (
	// ServiceRegistry stores published public processes.
	ServiceRegistry = discovery.Registry
	// ServiceMatch is one discovery result.
	ServiceMatch = discovery.Match
	// MatchEvaluation compares a matcher against ground truth.
	MatchEvaluation = discovery.Evaluation
)

// NewServiceRegistry returns an empty service registry.
func NewServiceRegistry() *ServiceRegistry { return discovery.NewRegistry() }

// EvaluateMatches computes precision/recall of a result set.
func EvaluateMatches(matcher string, got []ServiceMatch, truth map[string]bool) MatchEvaluation {
	return discovery.Evaluate(matcher, got, truth)
}

// Decentralized change introduction (paper Sec. 6).
type (
	// DecentralNode is one participant of the decentralized protocol.
	DecentralNode = decentral.Node
	// Negotiation is the outcome of a decentralized change
	// introduction (propose/vote/commit).
	Negotiation = decentral.Negotiation
	// PartnerAdapter is the partner-side adaptation callback used
	// during negotiation.
	PartnerAdapter = decentral.Adapter
)

// NegotiateChange runs the decentralized two-phase introduction of a
// change: propose the new views, collect accept/adapted/reject votes,
// commit iff nobody rejected.
func NegotiateChange(origin string, newViews map[string]*Automaton, partners []DecentralNode, adapt PartnerAdapter) (*Negotiation, error) {
	return decentral.NegotiateChange(origin, newViews, partners, adapt)
}

// Schema version management (paper Sec. 8: co-existing choreography
// versions with instance migration).
type (
	// VersionHistory is one party's version tree.
	VersionHistory = version.History
	// VersionManager tracks a history plus the running instances
	// pinned to its versions.
	VersionManager = version.Manager
)

// NewVersionHistory starts a version history with the initial version.
func NewVersionHistory(party string, private *Process, public *Automaton) (*VersionHistory, error) {
	return version.NewHistory(party, private, public)
}

// NewVersionManager wraps a history for instance tracking.
func NewVersionManager(h *VersionHistory) *VersionManager { return version.NewManager(h) }

// Instance migration (the paper's Sec. 8 extension).
type (
	// Instance is a running conversation identified by its trace.
	Instance = instance.Instance
	// MigrationStatus classifies an instance against a new schema.
	MigrationStatus = instance.Status
	// MigrationReport summarizes a migration.
	MigrationReport = instance.Report
)

// CheckInstance classifies one instance against the new public
// process (ADEPT-style compliance).
func CheckInstance(inst Instance, newPublic *Automaton) (MigrationStatus, error) {
	return instance.Check(inst, newPublic)
}

// MigrateInstances classifies every instance against the new schema.
func MigrateInstances(instances []Instance, newPublic *Automaton) (*MigrationReport, error) {
	return instance.Migrate(instances, newPublic)
}

// SampleInstances draws running instances of a public process by
// seeded random walks.
func SampleInstances(public *Automaton, seed int64, n, maxLen int) []Instance {
	return instance.SampleInstances(public, seed, n, maxLen)
}

// Conformance monitoring: replaying observed message logs against the
// agreed public processes and detecting uncontrolled evolution.
type (
	// Deviation localizes one protocol violation.
	Deviation = conformance.Deviation
	// Drift is the outcome of comparing observed behavior with a
	// published view.
	Drift = conformance.Drift
)

// CheckTrace replays a whole message log; it returns the first
// deviation (nil if none) and whether the conversation completed.
func CheckTrace(parties map[string]*Automaton, trace []Label) (*Deviation, bool, error) {
	return conformance.CheckTrace(parties, trace)
}

// DetectDrift compares the observed behavior of a party (message logs)
// against its published bilateral view and reports novel behavior —
// evidence of uncontrolled evolution.
func DetectDrift(party string, publishedView *Automaton, traces [][]Label) *Drift {
	return conformance.DetectDrift(party, publishedView, traces)
}

// The mixed-traffic load generator over the scenario corpus.
type (
	// LoadgenConfig parameterizes one load run against a choreod.
	LoadgenConfig = loadgen.Config
	// LoadgenMix weighs the load generator's op classes.
	LoadgenMix = loadgen.Mix
	// LoadgenReport is a load run's per-class throughput/latency
	// summary.
	LoadgenReport = loadgen.Report
)

// RunLoadgen drives mixed corpus traffic against a running choreod
// and reports per-op-class throughput and latency quantiles.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenReport, error) {
	return loadgen.Run(ctx, cfg)
}
