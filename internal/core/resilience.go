package core

import (
	"errors"
	"fmt"
	"sort"
)

// Protocol phase names used in member-failure errors and reports.
const (
	PhaseSummary = "summary collection"
	PhaseMAF     = "MAF (phase 1)"
	PhaseLD      = "LD (phase 2)"
	PhaseLR      = "LR-test (phase 3)"
)

// ErrMemberFailed marks a member as unreachable after the transport layer
// exhausted its retry budget. Providers wrap their terminal transport errors
// with it. Without Options.Byzantine, Run treats any other member-attributed
// error (protocol violations, tampered payloads) as run-fatal, because silently excluding a member that misbehaves — rather
// than one that merely disappeared — would mask an attack; with it, such
// members are quarantined with an attributing blame record instead.
var ErrMemberFailed = errors.New("member unreachable")

// ErrQuorumLost is returned when excluding failed members would leave fewer
// survivors than the configured quorum.
var ErrQuorumLost = errors.New("core: quorum lost")

// MemberError attributes a failure to one member and the protocol phase
// where it surfaced. The assessment wraps every member-side error in one, so
// callers can tell which GDO broke and where without parsing messages.
type MemberError struct {
	// Member is the index within the member slice of the failing run.
	Member int
	// Phase is the protocol phase where the failure surfaced.
	Phase string
	// Err is the underlying cause.
	Err error
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("core: member %d failed in %s: %v", e.Member, e.Phase, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// memberErr builds a MemberError for one member and phase.
func memberErr(member int, phase string, format string, args ...any) *MemberError {
	return &MemberError{Member: member, Phase: phase, Err: fmt.Errorf(format, args...)}
}

// FailedMembers walks an assessment error and returns the member indices
// whose failures are degradable (wrapped in ErrMemberFailed), sorted. An
// empty result means the error is run-fatal.
func FailedMembers(err error) []int {
	seen := make(map[int]bool)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if errors.Is(me.Err, ErrMemberFailed) {
				seen[me.Member] = true
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// byzantineFault is one member-attributed misbehavior extracted from an
// assessment error: enough evidence to quarantine and blame the member.
type byzantineFault struct {
	slot            int
	phase           string
	query           string
	kind            string
	prior, observed []byte
}

// byzantineFaults walks an assessment error and returns the quarantinable
// misbehavior evidence — equivocations and invalid payloads — one fault per
// implicated slot, sorted. Like FailedMembers it stops at the MemberError
// layer, so nested attributions are never double-counted.
func byzantineFaults(err error) []byzantineFault {
	var out []byzantineFault
	seen := make(map[int]bool)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if seen[me.Member] {
				return
			}
			var eq *EquivocationError
			switch {
			case errors.As(me.Err, &eq):
				seen[me.Member] = true
				out = append(out, byzantineFault{
					slot: me.Member, phase: me.Phase, query: eq.Query,
					kind: BlameEquivocation, prior: eq.Prior, observed: eq.Observed,
				})
			case errors.Is(me.Err, ErrInvalidPayload):
				seen[me.Member] = true
				// The validation message names the violated invariant (and
				// only the invariant) — it doubles as the query description.
				out = append(out, byzantineFault{
					slot: me.Member, phase: me.Phase, query: me.Err.Error(),
					kind: BlameInvalidPayload,
				})
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	sort.Slice(out, func(i, j int) bool { return out[i].slot < out[j].slot })
	return out
}

// memberPhases maps each member slot attributed in err to the phase its
// first-seen failure surfaced in (for health-transition events).
func memberPhases(err error) map[int]string {
	phases := make(map[int]string)
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if me, ok := e.(*MemberError); ok {
			if _, ok := phases[me.Member]; !ok {
				phases[me.Member] = me.Phase
			}
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	return phases
}

// mergeBlames appends the new records to base, dropping duplicates by
// (member, phase, query, kind) — a blame replayed from a checkpoint seed and
// re-raised by the runner must land in the report once.
func mergeBlames(base, add []Blame) []Blame {
	type key struct{ member, phase, query, kind string }
	seen := make(map[key]bool, len(base))
	for _, b := range base {
		seen[key{b.Member, b.Phase, b.Query, b.Kind}] = true
	}
	out := base
	for _, b := range add {
		k := key{b.Member, b.Phase, b.Query, b.Kind}
		if !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

// removeID returns s without id, preserving order.
func removeID(s []int, id int) []int {
	out := s[:0]
	for _, v := range s {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}
