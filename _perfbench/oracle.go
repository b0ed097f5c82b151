package main

import (
	"fmt"
	"sync"

	"gendpr/internal/core"
	"gendpr/internal/genome"
)

// oracle computes the expected selection of every request shape outside
// the timed window: the centralized pipeline for the base protocol (Table
// 4's ground truth) and the in-process distributed run for a collusion
// policy.
type oracle struct {
	cohort *genome.Cohort
	shards []*genome.Matrix

	mu    sync.Mutex
	cache map[shapeKey]*core.Report
}

func newOracle(st *stack) *oracle {
	return &oracle{cohort: st.cohort, shards: st.shards, cache: make(map[shapeKey]*core.Report)}
}

func (o *oracle) compute(a assessment) (*core.Report, error) {
	if a.policy == (core.CollusionPolicy{}) {
		return core.RunCentralized(o.cohort, a.config())
	}
	return core.RunDistributed(o.shards, o.cohort.Reference, a.config(), a.policy)
}

// prepare computes the oracle of every distinct shape among the outcomes,
// on two workers.
func (o *oracle) prepare(outs []outcome) error {
	todo := make(chan assessment)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range todo {
				rep, err := o.compute(a)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("oracle for MAF %v / LD %v: %w", a.maf, a.ld, err)
					}
					errMu.Unlock()
					continue
				}
				o.mu.Lock()
				o.cache[a.shape()] = rep
				o.mu.Unlock()
			}
		}()
	}
	queued := make(map[shapeKey]bool)
	for _, out := range outs {
		if k := out.a.shape(); !queued[k] && o.report(k) == nil {
			queued[k] = true
			todo <- out.a
		}
	}
	close(todo)
	wg.Wait()
	return firstErr
}

// report returns the prepared oracle report for a shape, nil if none.
func (o *oracle) report(k shapeKey) *core.Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cache[k]
}

// check compares one reply with its oracle: the released selection sizes
// and the number of evaluated combinations.
func (o *oracle) check(out outcome) error {
	if out.err != nil {
		return out.err
	}
	want := o.report(out.a.shape())
	if want == nil {
		return fmt.Errorf("no oracle for MAF %v / LD %v", out.a.maf, out.a.ld)
	}
	maf, ld, lr := want.Selection.Counts()
	got := [4]int{out.reply.AfterMAF, out.reply.AfterLD, out.reply.SafeCount, out.reply.Combinations}
	if exp := [4]int{maf, ld, lr, want.Combinations}; got != exp {
		return fmt.Errorf("MAF %v / LD %v: reply MAF/LD/LR/combinations %v, oracle %v", out.a.maf, out.a.ld, got, exp)
	}
	return nil
}
