package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"gendpr/internal/checkpoint"
	"gendpr/internal/genome"
)

// snapshotStore passes the first keep saves through to the inner store and
// silently drops the rest — the on-disk view of a leader that crashed right
// after its keep-th phase-boundary save. Clear is dropped too (a crashed
// leader never cleans up).
type snapshotStore struct {
	inner *checkpoint.MemStore
	keep  int
	saves int
}

func (s *snapshotStore) Save(st *checkpoint.State) error {
	s.saves++
	if s.saves <= s.keep {
		return s.inner.Save(st)
	}
	return nil
}

func (s *snapshotStore) Load() (*checkpoint.State, error) { return s.inner.Load() }
func (s *snapshotStore) Clear() error                     { return nil }

func checkpointFixture(t *testing.T) ([]*genome.Matrix, *genome.Matrix) {
	t.Helper()
	cohort := testCohort(t, 60, 48, 11)
	return shardsOf(t, cohort, 3), cohort.Reference
}

func providersFor(shards []*genome.Matrix, order []int) ([]Provider, []string) {
	names := []string{"gdo-a", "gdo-b", "gdo-c"}
	ps := make([]Provider, len(order))
	ns := make([]string, len(order))
	for slot, i := range order {
		ps[slot] = NewLocalMember(shards[i])
		ns[slot] = names[i]
	}
	return ps, ns
}

// noPairProvider is a member that refuses every pair-statistics query, single
// or batched; every other query is answered by the wrapped member.
type noPairProvider struct {
	*LocalMember
}

var errNoPairs = errors.New("pair statistics queried after the LD boundary")

func (noPairProvider) PairStats(a, b int) (genome.PairStats, error) {
	return genome.PairStats{}, errNoPairs
}

func (noPairProvider) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	return nil, errNoPairs
}

// TestResumeFromCheckpointBitIdentical crashes a leader after each save
// boundary in turn, then resumes under a leader that enumerates the providers
// in a different order, and demands the resumed result equal the undisturbed
// baseline bit for bit. A resume seeded at the LD boundary or later runs over
// members that refuse pair queries: checkpoints carry no pair statistics, and
// no phase after LD may need them.
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	shards, ref := checkpointFixture(t)
	cfg := DefaultConfig()
	for _, policy := range []CollusionPolicy{{}, {F: 1}, {Conservative: true}} {
		baselineProviders, _ := providersFor(shards, []int{0, 1, 2})
		baseline, err := Run(baselineProviders, ref, cfg, policy, nil, Options{})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}

		subsets, err := evaluationSubsets(len(shards), policy)
		if err != nil {
			t.Fatal(err)
		}
		maxSaves := 2 + len(subsets) // MAF, LD, one per combination
		for keep := 1; keep <= maxSaves; keep++ {
			snap := &snapshotStore{inner: checkpoint.NewMemStore(), keep: keep}
			ps, names := providersFor(shards, []int{0, 1, 2})
			if _, err := Run(ps, ref, cfg, policy, nil, Options{
				ProviderNames: names,
				Checkpoints:   snap,
			}); err != nil {
				t.Fatalf("policy %+v keep %d: first run: %v", policy, keep, err)
			}

			// Resume with the provider slots shuffled: the new leader claims
			// the checkpoint by identity name, not position.
			ps2, names2 := providersFor(shards, []int{2, 0, 1})
			if keep >= 2 {
				for i, p := range ps2 {
					ps2[i] = noPairProvider{p.(*LocalMember)}
				}
			}
			report, err := Run(ps2, ref, cfg, policy, nil, Options{
				ProviderNames: names2,
				Checkpoints:   snap.inner,
			})
			if err != nil {
				t.Fatalf("policy %+v keep %d: resume: %v", policy, keep, err)
			}
			if !report.Resumed {
				t.Errorf("policy %+v keep %d: Resumed not set", policy, keep)
			}
			if !report.Selection.Equal(baseline.Selection) {
				t.Errorf("policy %+v keep %d: resumed selection %v != baseline %v",
					policy, keep, report.Selection, baseline.Selection)
			}
			if report.Selection.Power != baseline.Selection.Power {
				t.Errorf("policy %+v keep %d: resumed power %v != baseline %v",
					policy, keep, report.Selection.Power, baseline.Selection.Power)
			}
			// A successful resumed run clears its store.
			if _, err := snap.inner.Load(); !errors.Is(err, checkpoint.ErrNotFound) {
				t.Errorf("policy %+v keep %d: store not cleared after success: %v", policy, keep, err)
			}
		}
	}
}

// TestCheckpointFingerprintMismatchStartsFresh writes a checkpoint under one
// configuration and asserts a run with a different cutoff ignores it.
func TestCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	shards, ref := checkpointFixture(t)
	store := checkpoint.NewMemStore()

	ps, names := providersFor(shards, []int{0, 1, 2})
	snap := &snapshotStore{inner: store, keep: 2}
	if _, err := Run(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, Options{
		ProviderNames: names, Checkpoints: snap,
	}); err != nil {
		t.Fatalf("first run: %v", err)
	}

	altered := DefaultConfig()
	altered.MAFCutoff = 0.10
	ps2, names2 := providersFor(shards, []int{0, 1, 2})
	report, err := Run(ps2, ref, altered, CollusionPolicy{}, nil, Options{
		ProviderNames: names2, Checkpoints: store,
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if report.Resumed {
		t.Error("run resumed from a checkpoint with a different fingerprint")
	}

	ctrl, err := Run(ps2, ref, altered, CollusionPolicy{}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Selection.Equal(ctrl.Selection) {
		t.Errorf("fresh run over stale checkpoint diverged: %v != %v", report.Selection, ctrl.Selection)
	}
}

// TestAssessmentContextCancel pre-cancels the context and expects the run to
// fail with ctx.Err() without contacting members.
func TestAssessmentContextCancel(t *testing.T) {
	shards, ref := checkpointFixture(t)
	ps, _ := providersFor(shards, []int{0, 1, 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestValidationRejectsTamperedSummaries feeds the leader impossible counts
// and expects a run-fatal MemberError wrapping ErrInvalidPayload that the
// resilient runner refuses to degrade away.
func TestValidationRejectsTamperedSummaries(t *testing.T) {
	shards, ref := checkpointFixture(t)
	ps, _ := providersFor(shards, []int{0, 1, 2})
	tampered := &tamperedProvider{Provider: ps[1]}
	ps[1] = tampered

	_, err := Run(ps, ref, DefaultConfig(), CollusionPolicy{}, nil, Options{MinQuorum: 1})
	if err == nil {
		t.Fatal("tampered counts were accepted")
	}
	if !errors.Is(err, ErrInvalidPayload) {
		t.Fatalf("error = %v, want ErrInvalidPayload", err)
	}
	var me *MemberError
	if !errors.As(err, &me) || me.Member != 1 {
		t.Fatalf("error = %v, want MemberError for member 1", err)
	}
	if got := FailedMembers(err); len(got) != 0 {
		t.Fatalf("tampering classified as degradable member failure: %v", got)
	}
}

// tamperedProvider reports a count exceeding its population.
type tamperedProvider struct {
	Provider
}

func (p *tamperedProvider) Counts() ([]int64, error) {
	counts, err := p.Provider.Counts()
	if err != nil {
		return nil, err
	}
	out := append([]int64(nil), counts...)
	out[0] = 1 << 40 // impossibly large
	return out, nil
}

// TestPreV3CheckpointStartsFresh hands a run a snapshot written by a build
// with checkpoint format Version 2 — same run shape, so only the version
// stands between it and a resume. The run must start fresh, reproduce the
// baseline, and leave the old record quarantined for inspection.
func TestPreV3CheckpointStartsFresh(t *testing.T) {
	shards, ref := checkpointFixture(t)
	cfg := DefaultConfig()
	baselineProviders, _ := providersFor(shards, []int{0, 1, 2})
	baseline, err := Run(baselineProviders, ref, cfg, CollusionPolicy{}, nil, Options{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// A crashed run's LD-boundary snapshot, re-stamped as Version 2 with a
	// valid CRC: the envelope is intact, only the version is skewed.
	snap := &snapshotStore{inner: checkpoint.NewMemStore(), keep: 2}
	ps, names := providersFor(shards, []int{0, 1, 2})
	if _, err := Run(ps, ref, cfg, CollusionPolicy{}, nil, Options{ProviderNames: names, Checkpoints: snap}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	st, err := snap.inner.Load()
	if err != nil {
		t.Fatal(err)
	}
	old := checkpoint.Encode(st)
	binary.BigEndian.PutUint32(old[8:], 2)
	binary.BigEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[8:len(old)-4]))

	store, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(), old, 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := Run(ps, ref, cfg, CollusionPolicy{}, nil, Options{ProviderNames: names, Checkpoints: store})
	if err != nil {
		t.Fatalf("run over a Version 2 snapshot: %v", err)
	}
	if report.Resumed {
		t.Error("run resumed from a Version 2 snapshot")
	}
	if !report.Selection.Equal(baseline.Selection) {
		t.Errorf("selection %v != baseline %v", report.Selection, baseline.Selection)
	}
	if got, err := os.ReadFile(store.Path() + ".corrupt"); err != nil || !bytes.Equal(got, old) {
		t.Errorf("Version 2 snapshot not quarantined under .corrupt: %v", err)
	}
}
