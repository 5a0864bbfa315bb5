package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bpel"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/paperrepro"
)

// poisonJournal arms the fault pair that turns the next WAL append
// into an unrecoverable failure: the write tears AND its rollback
// truncate fails, which poisons the journal and degrades the store.
func poisonJournal(t *testing.T) {
	t.Helper()
	for _, name := range []string{fault.PointJournalAppendWrite, fault.PointJournalWALTruncate} {
		if err := fault.Arm(name, fault.Trigger{}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(fault.DisarmAll)
}

// TestDegradedReadOnlyMode pins the degraded-mode contract end to
// end: an unrecoverable journal write flips the store read-only,
// reads keep serving the last committed state, every mutation fails
// with ErrDegraded, stats report the failure — and a restart recovers
// the full acked state.
func TestDegradedReadOnlyMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	preSnap, err := s.Snapshot(ctx, "procurement")
	if err != nil {
		t.Fatal(err)
	}

	poisonJournal(t)
	if err := s.Create(ctx, "doomed", nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation on poisoned journal = %v, want ErrDegraded", err)
	}
	fault.DisarmAll()

	if s.Degraded() == nil {
		t.Fatal("Degraded() = nil after unrecoverable append")
	}
	st := s.Stats()
	if !st.Degraded || st.LastError == "" {
		t.Fatalf("stats = degraded:%v lastError:%q, want degraded with error", st.Degraded, st.LastError)
	}

	// Reads still serve the last committed state.
	snap, err := s.Snapshot(ctx, "procurement")
	if err != nil {
		t.Fatalf("read in degraded mode: %v", err)
	}
	if snap.Version != preSnap.Version {
		t.Fatalf("degraded read sees version %d, want %d", snap.Version, preSnap.Version)
	}
	if _, err := s.Check(ctx, "procurement"); err != nil {
		t.Fatalf("degraded Check: %v", err)
	}
	if _, err := s.InstanceRecords(ctx, "procurement", paperrepro.Buyer); err != nil {
		t.Fatalf("degraded InstanceRecords: %v", err)
	}

	// Every mutation fails with ErrDegraded, even with faults cleared —
	// degradation is one-way for the process lifetime.
	mutations := map[string]error{
		"Create": s.Create(ctx, "x", nil),
		"Delete": s.Delete(ctx, "procurement"),
		"AddInstances": s.AddInstances(ctx, "procurement", paperrepro.Buyer,
			[]instance.Instance{{ID: "i1"}}),
	}
	if _, err := s.PutParties(ctx, "procurement", nil, nil); err != nil {
		mutations["PutParties"] = err
	}
	if _, err := s.RegisterParty(ctx, "procurement", paperrepro.BuyerProcess()); err != nil {
		mutations["RegisterParty"] = err
	}
	if _, err := s.SampleInstances(ctx, "procurement", paperrepro.Buyer, 1, 1, 4); err != nil {
		mutations["SampleInstances"] = err
	}
	if _, err := s.IngestEvents(ctx, "procurement", []ingest.Event{{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"}}); err != nil {
		mutations["IngestEvents"] = err
	}
	if _, _, err := s.CommitEvolutionIdem(ctx, &Evolution{}, ""); err != nil {
		mutations["CommitEvolution"] = err
	}
	if _, err := s.ApplyOps(ctx, "procurement", paperrepro.Buyer, nil, 0); err != nil {
		mutations["ApplyOps"] = err
	}
	if _, err := s.MigrateAll(ctx, "procurement", 2); err != nil {
		mutations["MigrateAll"] = err
	}
	if _, err := s.StartMigration(ctx, "procurement", 2); err != nil {
		mutations["StartMigration"] = err
	}
	if _, err := s.Checkpoint(ctx); err != nil {
		mutations["Checkpoint"] = err
	}
	for name, err := range mutations {
		if !errors.Is(err, ErrDegraded) {
			// PutParties and ApplyOps validate input before the gate.
			if (name == "PutParties" || name == "ApplyOps") && errors.Is(err, ErrInvalid) {
				continue
			}
			t.Errorf("%s in degraded mode = %v, want ErrDegraded", name, err)
		}
	}

	// A restart is the recovery path: the journal's torn tail is cut
	// and the recovered store matches the degraded store's in-memory
	// state — nothing acked was lost, nothing unacked leaked in.
	s.Close()
	recovered, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatalf("recovery after degrade: %v", err)
	}
	defer recovered.Close()
	if recovered.Degraded() != nil {
		t.Fatal("recovered store still degraded")
	}
	assertStoresEqual(t, s, recovered)
	if err := recovered.Create(ctx, "fresh", nil); err != nil {
		t.Fatalf("mutation after recovery: %v", err)
	}
}

// TestCleanAppendFailureDoesNotDegrade pins the boundary: a failed
// append whose rollback succeeds is an ordinary mutation failure —
// the store stays writable.
func TestCleanAppendFailureDoesNotDegrade(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := fault.Arm(fault.PointJournalAppendWrite, fault.Trigger{Nth: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
	if err := s.Create(ctx, "a", nil); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("clean append failure = %v, want a non-degraded error", err)
	}
	if s.Degraded() != nil {
		t.Fatal("store degraded after a rolled-back append")
	}
	if err := s.Create(ctx, "a", nil); err != nil {
		t.Fatalf("mutation after clean failure: %v", err)
	}
}

// TestCommitEvolutionIdempotent pins the exactly-once contract: a
// retried commit carrying the same idempotency key returns the
// recorded outcome and never double-applies — across a restart too.
func TestCommitEvolutionIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(ctx, "procurement", paperrepro.SyncOps); err != nil {
		t.Fatal(err)
	}
	procs := []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}
	if _, err := s.PutParties(ctx, "procurement", procs, nil); err != nil {
		t.Fatal(err)
	}
	evo, err := s.Evolve(ctx, "procurement", paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Commits

	snap1, v1, err := s.CommitEvolutionIdem(ctx, evo, "commit-1")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != snap1.Version {
		t.Fatalf("returned version %d, snapshot at %d", v1, snap1.Version)
	}
	// The retry: same evolution, same key. Applies nothing.
	snap2, v2, err := s.CommitEvolutionIdem(ctx, evo, "commit-1")
	if err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	if v2 != v1 || snap2.Version != snap1.Version {
		t.Fatalf("retry returned v%d (snap v%d), want v%d (no double apply)", v2, snap2.Version, v1)
	}
	if got := s.Stats().Commits - before; got != 1 {
		t.Fatalf("commit counter advanced %d times, want 1", got)
	}
	// A blind keyless retry hits the version check instead.
	if _, err := s.CommitEvolution(ctx, evo); !errors.Is(err, ErrConflict) {
		t.Fatalf("keyless replay = %v, want ErrConflict", err)
	}

	// The dedup window is journaled: a restarted server still
	// recognizes the key.
	s.Close()
	r, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, ok := r.IdemSeen("commit-1")
	if !ok || res.Version != v1 || res.ID != "procurement" {
		t.Fatalf("recovered window: %+v, %v; want commit-1 → v%d", res, ok, v1)
	}
	rsnap, rv, err := r.CommitEvolutionIdem(ctx, evo, "commit-1")
	if err != nil || rv != v1 || rsnap.Version != v1 {
		t.Fatalf("post-recovery retry = v%d (snap v%d), %v; want v%d", rv, rsnap.Version, err, v1)
	}
	assertStoresEqual(t, s, r)
}

// TestIdemWindowEvictsFIFO pins the window bound and its
// deterministic insertion-order eviction.
func TestIdemWindowEvictsFIFO(t *testing.T) {
	s := New()
	for i := 0; i < idemWindow+5; i++ {
		s.idemRecord(fmt.Sprintf("k%d", i), IdemResult{Version: uint64(i)})
	}
	if len(s.idem) != idemWindow || len(s.idemOrder) != idemWindow {
		t.Fatalf("window size %d/%d, want %d", len(s.idem), len(s.idemOrder), idemWindow)
	}
	if _, ok := s.IdemSeen("k4"); ok {
		t.Fatal("oldest key survived past the window")
	}
	if _, ok := s.IdemSeen("k5"); !ok {
		t.Fatal("in-window key evicted")
	}
	s.idemRecord("k5", IdemResult{Version: 999})
	if res, _ := s.IdemSeen("k5"); res.Version != 5 {
		t.Fatalf("duplicate insert overwrote outcome: %+v", res)
	}
}

// TestCloseDrainsBackgroundWork closes a journaled store while ingest
// submissions and migration sweeps are in full flight; run under
// -race this pins the drain ordering — background appenders must be
// quiet before the journal closes underneath them.
func TestCloseDrainsBackgroundWork(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				evs := []ingest.Event{{
					Party:    paperrepro.Buyer,
					Instance: fmt.Sprintf("bg-%d-%d", w, i),
					Label:    "B#A#orderOp",
				}}
				if _, err := s.IngestEvents(ctx, "procurement", evs); err != nil {
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := s.StartMigration(ctx, "procurement", 2); err != nil {
				return
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close mid-soak: %v", err)
	}
	wg.Wait()
	if err := s.Create(ctx, "late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatalf("recovery after mid-soak close: %v", err)
	}
	defer r.Close()
	assertStoresEqual(t, s, r)
}
