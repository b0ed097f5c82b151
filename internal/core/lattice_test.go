package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gendpr/internal/checkpoint"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
)

// patternlessProvider hides a provider's PatternProvider capability, forcing
// the assessment onto the legacy per-combination Phase 3 path. It is the
// test's stand-in for a federation member running an older binary.
type patternlessProvider struct {
	inner Provider
}

func (p *patternlessProvider) Counts() ([]int64, error) { return p.inner.Counts() }
func (p *patternlessProvider) CaseN() (int64, error)    { return p.inner.CaseN() }
func (p *patternlessProvider) PairStats(a, b int) (genome.PairStats, error) {
	return p.inner.PairStats(a, b)
}
func (p *patternlessProvider) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	return p.inner.LRMatrix(cols, caseFreq, refFreq)
}

func runWithProviders(t *testing.T, shards []*genome.Matrix, ref *genome.Matrix, cfg Config, policy CollusionPolicy, patternless bool) *Report {
	t.Helper()
	providers := make([]Provider, len(shards))
	for i, s := range shards {
		if patternless {
			providers[i] = &patternlessProvider{inner: NewLocalMember(s)}
		} else {
			providers[i] = NewLocalMember(s)
		}
	}
	rep, err := Run(providers, ref, cfg, policy, nil, Options{})
	if err != nil {
		t.Fatalf("Run(patternless=%v): %v", patternless, err)
	}
	return rep
}

// TestLatticeMatchesLegacyGolden is the equivalence contract of the
// combination lattice: for every federation size and collusion policy the
// incremental Gray-chain evaluation must reproduce the legacy
// per-combination path bit for bit — the final selection, the power, and
// every per-combination safe list.
func TestLatticeMatchesLegacyGolden(t *testing.T) {
	for _, g := range []int{3, 4, 5} {
		cohort := testCohort(t, 110, 60*g, int64(40+g))
		shards := shardsOf(t, cohort, g)

		var policies []CollusionPolicy
		for f := 1; f < g; f++ {
			policies = append(policies, CollusionPolicy{F: f})
		}
		policies = append(policies, CollusionPolicy{Conservative: true})

		for _, policy := range policies {
			for _, parallel := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.ParallelCombinations = parallel
				legacy := runWithProviders(t, shards, cohort.Reference, cfg, policy, true)
				lattice := runWithProviders(t, shards, cohort.Reference, cfg, policy, false)

				label := fmt.Sprintf("g=%d policy=%+v parallel=%v", g, policy, parallel)
				if !lattice.Selection.Equal(legacy.Selection) {
					t.Errorf("%s: lattice %v != legacy %v", label, lattice.Selection, legacy.Selection)
				}
				if lattice.Selection.Power != legacy.Selection.Power {
					t.Errorf("%s: lattice power %v != legacy %v", label, lattice.Selection.Power, legacy.Selection.Power)
				}
				if len(lattice.PerCombination) != len(legacy.PerCombination) {
					t.Fatalf("%s: combination counts differ: %d vs %d", label, len(lattice.PerCombination), len(legacy.PerCombination))
				}
				for c := range legacy.PerCombination {
					if !lattice.PerCombination[c].Equal(legacy.PerCombination[c]) {
						t.Errorf("%s: combination %d: lattice %v != legacy %v",
							label, c, lattice.PerCombination[c], legacy.PerCombination[c])
					}
				}
			}
		}
	}
}

// TestBuildLatticePlanCoversAllSubsets walks every chain of a plan and checks
// the reconstructed subsets land exactly once in every lexicographic slot,
// matching evaluationSubsets, for a range of chains-per-block settings.
func TestBuildLatticePlanCoversAllSubsets(t *testing.T) {
	for _, g := range []int{3, 5, 6} {
		for _, policy := range []CollusionPolicy{{}, {F: 1}, {F: g - 1}, {Conservative: true}} {
			want, err := evaluationSubsets(g, policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, chains := range []int{1, 2, 3, 16} {
				plan, err := buildLatticePlan(g, policy, chains)
				if err != nil {
					t.Fatalf("g=%d policy=%+v chains=%d: %v", g, policy, chains, err)
				}
				if plan.count != len(want) {
					t.Fatalf("g=%d policy=%+v chains=%d: plan count %d, want %d", g, policy, chains, plan.count, len(want))
				}
				got := make([][]int, plan.count)
				for ci := range plan.chains {
					err := plan.chains[ci].walk(func(pos, slot int, subset []int, rem, add int) error {
						if slot < 0 || slot >= plan.count {
							return fmt.Errorf("slot %d out of range", slot)
						}
						if got[slot] != nil {
							return fmt.Errorf("slot %d visited twice", slot)
						}
						got[slot] = append([]int(nil), subset...)
						if pos == 0 && (rem != -1 || add != -1) {
							return fmt.Errorf("head position reported exchange (%d,%d)", rem, add)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("g=%d policy=%+v chains=%d: %v", g, policy, chains, err)
					}
				}
				for slot, sub := range got {
					if sub == nil {
						t.Fatalf("g=%d policy=%+v chains=%d: slot %d never visited", g, policy, chains, slot)
					}
					if !equalInts(sub, want[slot]) {
						t.Fatalf("g=%d policy=%+v chains=%d: slot %d = %v, want %v", g, policy, chains, slot, sub, want[slot])
					}
				}
			}
		}
	}
}

// TestRunStealing checks the work-stealing scheduler runs every task exactly
// once across worker counts and reports every task error.
func TestRunStealing(t *testing.T) {
	pool := newWorkPool(8)
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{1, 3, 8, 100} {
			ran := make([]int32, n)
			err := pool.RunStealing(n, workers, func(task int) error {
				if atomic.AddInt32(&ran[task], 1) != 1 {
					t.Errorf("n=%d workers=%d: task %d ran twice", n, workers, task)
				}
				if task%5 == 3 {
					return fmt.Errorf("task %d failed", task)
				}
				return nil
			})
			failures := 0
			for task := 0; task < n; task++ {
				if atomic.LoadInt32(&ran[task]) != 1 {
					t.Errorf("n=%d workers=%d: task %d ran %d times", n, workers, task, ran[task])
				}
				if task%5 == 3 {
					failures++
				}
			}
			if failures == 0 {
				if err != nil {
					t.Errorf("n=%d workers=%d: unexpected error %v", n, workers, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("n=%d workers=%d: expected %d task errors", n, workers, failures)
			}
			for task := 3; task < n; task += 5 {
				want := fmt.Sprintf("task %d failed", task)
				if !containsError(err, want) {
					t.Errorf("n=%d workers=%d: joined error misses %q", n, workers, want)
				}
			}
		}
	}
}

func containsError(err error, msg string) bool {
	type unwrapper interface{ Unwrap() []error }
	if err.Error() == msg {
		return true
	}
	if u, ok := err.(unwrapper); ok {
		for _, e := range u.Unwrap() {
			if containsError(e, msg) {
				return true
			}
		}
	}
	return false
}

// TestLatticeResumeConservativeParallel composes the sharded Phase 3 with
// checkpoint resume: a conservative G=4 run crashes mid-combination-sweep,
// resumes with parallel combinations enabled, and must reproduce the
// undisturbed baseline bit for bit.
func TestLatticeResumeConservativeParallel(t *testing.T) {
	cohort := testCohort(t, 70, 56, 13)
	shards := shardsOf(t, cohort, 4)
	names := []string{"gdo-a", "gdo-b", "gdo-c", "gdo-d"}
	policy := CollusionPolicy{Conservative: true}
	cfg := DefaultConfig()

	mk := func() []Provider {
		ps := make([]Provider, len(shards))
		for i, s := range shards {
			ps[i] = NewLocalMember(s)
		}
		return ps
	}
	baseline, err := Run(mk(), cohort.Reference, cfg, policy, nil, Options{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	subsets, err := evaluationSubsets(len(shards), policy)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := DefaultConfig()
	parCfg.ParallelCombinations = true
	// Crash after the MAF save, mid-sweep, and after the last combination.
	for _, keep := range []int{1, 3, 2 + len(subsets)/2, 2 + len(subsets)} {
		snap := &snapshotStore{inner: checkpoint.NewMemStore(), keep: keep}
		if _, err := Run(mk(), cohort.Reference, cfg, policy, nil, Options{
			ProviderNames: names,
			Checkpoints:   snap,
		}); err != nil {
			t.Fatalf("keep %d: first run: %v", keep, err)
		}
		report, err := Run(mk(), cohort.Reference, parCfg, policy, nil, Options{
			ProviderNames: names,
			Checkpoints:   snap.inner,
		})
		if err != nil {
			t.Fatalf("keep %d: resume: %v", keep, err)
		}
		if !report.Resumed {
			t.Errorf("keep %d: Resumed not set", keep)
		}
		if !report.Selection.Equal(baseline.Selection) {
			t.Errorf("keep %d: resumed selection %v != baseline %v", keep, report.Selection, baseline.Selection)
		}
		if report.Selection.Power != baseline.Selection.Power {
			t.Errorf("keep %d: resumed power %v != baseline %v", keep, report.Selection.Power, baseline.Selection.Power)
		}
	}
}
