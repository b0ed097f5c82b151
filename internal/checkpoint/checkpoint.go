// Package checkpoint persists assessment progress at phase boundaries so a
// re-elected leader (or a restarted one) can resume a partially completed
// GenDPR run instead of recomputing every phase from zero. A checkpoint is a
// single self-contained record: the provider roster it was taken over, the
// collected summary statistics, the selections surviving each completed
// phase (per combination and intersected), the per-combination Phase 3
// results (with the canonical admission order for the full-membership
// combination, which a resuming leader reuses instead of re-fetching member
// matrices), and the blame records of quarantined members.
//
// The on-disk/on-wire form is a versioned, length-prefixed, CRC-guarded
// envelope over the project's deterministic wire layout. Decoding is
// all-or-nothing and canonical: a truncated, corrupted, or version-skewed
// record yields an error and no partially applied state, and an accepted
// record re-encodes to the same bytes, which the fuzz target enforces.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"gendpr/internal/wire"
)

// Version is the current checkpoint format version. Decoders reject any
// other value: resuming from a checkpoint written by a different build is a
// correctness hazard, not a migration opportunity.
//
// Version 2 replaced the full-membership combination's wire-encoded merged
// LR-matrix (per-individual data) with the derived admission order. Version 3
// dropped the per-provider LD pair statistics, which no resume path reads
// (a replayed Phase 2 is followed by no pair query), and made the trailing
// blame section mandatory, so every accepted record is canonical.
const Version = 3

// magic identifies a checkpoint record; anything else is not even parsed.
const magic = "GDPRCKPT"

var (
	// ErrNotFound is returned by Store.Load when no checkpoint exists.
	ErrNotFound = errors.New("checkpoint: not found")

	// ErrCorrupt is returned when a record fails structural validation:
	// bad magic, truncated envelope, CRC mismatch, or undecodable payload.
	ErrCorrupt = errors.New("checkpoint: corrupt record")

	// ErrVersion is returned when the record's format version is not the
	// one this build writes.
	ErrVersion = errors.New("checkpoint: unsupported version")
)

// Stage is the highest fully completed phase boundary a checkpoint covers.
type Stage uint8

const (
	// StageNone means only the collected summaries are recorded.
	StageNone Stage = iota
	// StageMAF means Phase 1 is complete: LPrime and PerMAF are valid.
	StageMAF
	// StageLD means Phase 2 is complete: LDouble and PerLD are valid.
	StageLD
)

func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageMAF:
		return "maf"
	case StageLD:
		return "ld"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Combination is the completed Phase 3 result for one collusion combination,
// identified by the member names it was evaluated over (names, not slot
// indices: a new leader enumerates providers in a different order).
type Combination struct {
	// Members are the provider identity names of the combination.
	Members []string
	// Safe is the combination's safe SNP selection.
	Safe []int
	// Power is the residual identification power (meaningful for the
	// full-membership combination only).
	Power float64
	// Order is the canonical SNP admission order (the discriminability
	// ranking). It is retained only for the full-membership combination,
	// whose order every other combination shares; a resuming leader reuses
	// it without re-fetching member matrices. The order is a derived,
	// post-aggregation statistic — the merged per-individual LR-matrix it
	// was computed from is deliberately never persisted (checkpoints
	// outlive the enclave).
	Order []int
}

// BlameRecord is one attribution of detectably-wrong member behavior —
// equivocation across retries or a payload that failed leader-side
// validation. Blame is part of the checkpoint so a re-elected leader still
// reports which member a degraded run quarantined, and why.
//
// Prior and Observed are SHA-256 digests over the canonical wire encoding of
// the two conflicting payloads (one-way hashes of aggregate statistics, the
// same class of content as Counts below).
type BlameRecord struct {
	// Member is the provider identity name (names, not slot indices: a new
	// leader enumerates providers in a different order).
	Member string
	// Phase is the protocol phase the bad contribution targeted.
	Phase string
	// Query fingerprints which request the member answered inconsistently.
	Query string
	// Kind classifies the fault: "equivocation" or "invalid-payload".
	Kind string
	// Prior and Observed are the conflicting payload digests (equivocation
	// only; empty for validation failures, which have a single bad payload).
	Prior    []byte
	Observed []byte
}

// State is one checkpoint: everything a leader needs to resume an assessment
// at the recorded stage. Per-provider arrays (Counts, CaseNs) are
// indexed like Providers; a resuming leader remaps them onto its own
// provider order by name.
type State struct {
	// Fingerprint binds the checkpoint to one run shape (configuration,
	// policy, provider name set, reference dimensions). A mismatch means
	// the checkpoint describes a different run and must be ignored.
	Fingerprint []byte
	// Providers are the identity names, in the saving leader's slot order.
	Providers []string
	// Counts holds each provider's minor-allele count vector.
	Counts [][]int64
	// CaseNs holds each provider's case-population size.
	CaseNs []int64
	// Stage is the highest completed phase boundary.
	Stage Stage
	// LPrime and PerMAF are the Phase 1 outputs (valid from StageMAF).
	LPrime []int
	PerMAF [][]int
	// LDouble and PerLD are the Phase 2 outputs (valid from StageLD).
	LDouble []int
	PerLD   [][]int
	// Combinations lists the Phase 3 combinations completed so far.
	Combinations []Combination
	// Blamed lists the members quarantined for detectably-wrong behavior up
	// to this boundary, so attribution survives leader failover.
	Blamed []BlameRecord
}

// headerSize is the envelope prefix: magic | version u32 | payload length u64.
const headerSize = len(magic) + 4 + 8

// Encode serializes the state into the versioned CRC-guarded envelope:
//
//	magic(8) | version u32 | payload length u64 | payload | crc32(IEEE) u32
//
// The CRC covers version, length, and payload. The payload uses the wire
// codec's layout (fixed-width big-endian values, u64 length prefixes). A
// counting pass over the state sizes the record exactly, so the whole
// record — envelope included — is written into a single allocation.
func Encode(st *State) []byte {
	var size writer
	size.payload(st)
	w := writer{b: make([]byte, headerSize+size.n+4), n: headerSize}
	copy(w.b, magic)
	binary.BigEndian.PutUint32(w.b[len(magic):], Version)
	binary.BigEndian.PutUint64(w.b[len(magic)+4:], uint64(size.n))
	w.payload(st)
	binary.BigEndian.PutUint32(w.b[w.n:], crc32.ChecksumIEEE(w.b[len(magic):w.n]))
	return w.b
}

// writer lays out a payload at offset n of b. With a nil b it only advances
// n, which makes the same walk the exact-size pass of Encode.
type writer struct {
	b []byte
	n int
}

func (w *writer) payload(st *State) {
	w.blob(st.Fingerprint)
	w.strings(st.Providers)
	w.u64(uint64(len(st.Counts)))
	for _, counts := range st.Counts {
		w.int64s(counts)
	}
	w.int64s(st.CaseNs)
	w.u64(uint64(st.Stage))
	w.ints(st.LPrime)
	w.perCombination(st.PerMAF)
	w.ints(st.LDouble)
	w.perCombination(st.PerLD)
	w.u64(uint64(len(st.Combinations)))
	for _, c := range st.Combinations {
		w.strings(c.Members)
		w.ints(c.Safe)
		w.u64(math.Float64bits(c.Power))
		w.ints(c.Order)
	}
	w.u64(uint64(len(st.Blamed)))
	for _, b := range st.Blamed {
		w.str(b.Member)
		w.str(b.Phase)
		w.str(b.Query)
		w.str(b.Kind)
		w.blob(b.Prior)
		w.blob(b.Observed)
	}
}

func (w *writer) u64(v uint64) {
	if w.b != nil {
		binary.BigEndian.PutUint64(w.b[w.n:], v)
	}
	w.n += 8
}

func (w *writer) blob(b []byte) {
	w.u64(uint64(len(b)))
	if w.b != nil {
		copy(w.b[w.n:], b)
	}
	w.n += len(b)
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	if w.b != nil {
		copy(w.b[w.n:], s)
	}
	w.n += len(s)
}

func (w *writer) strings(ss []string) {
	w.u64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *writer) int64s(v []int64) {
	w.u64(uint64(len(v)))
	if w.b == nil {
		w.n += 8 * len(v)
		return
	}
	for _, x := range v {
		binary.BigEndian.PutUint64(w.b[w.n:], uint64(x))
		w.n += 8
	}
}

func (w *writer) ints(v []int) {
	w.u64(uint64(len(v)))
	if w.b == nil {
		w.n += 8 * len(v)
		return
	}
	for _, x := range v {
		binary.BigEndian.PutUint64(w.b[w.n:], uint64(int64(x)))
		w.n += 8
	}
}

func (w *writer) perCombination(per [][]int) {
	w.u64(uint64(len(per)))
	for _, sel := range per {
		w.ints(sel)
	}
}

// Decode parses an encoded checkpoint. Any structural defect — wrong magic,
// version skew, truncation, trailing bytes, CRC mismatch, an out-of-range
// field, or an undecodable payload — yields a nil state and an error; a
// partially decoded state is never returned. Every accepted record is
// canonical: Encode of the decoded state reproduces it byte for byte.
func Decode(b []byte) (*State, error) {
	if len(b) < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := b[len(magic) : len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if version := binary.BigEndian.Uint32(body); version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, version, Version)
	}
	length := binary.BigEndian.Uint64(body[4:])
	payload := body[12:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload length %d, envelope says %d", ErrCorrupt, len(payload), length)
	}

	r := &reader{Decoder: wire.NewDecoder(payload)}
	st := &State{Fingerprint: copyBytes(r.Blob()), Providers: r.strings()}
	st.Counts = make([][]int64, r.count("counts"))
	for i := range st.Counts {
		st.Counts[i] = r.Int64s()
	}
	st.CaseNs = r.Int64s()
	if stage := r.Uint64(); stage <= uint64(StageLD) {
		st.Stage = Stage(stage)
	} else {
		r.fail("stage")
	}
	st.LPrime = r.Ints()
	st.PerMAF = r.perCombination()
	st.LDouble = r.Ints()
	st.PerLD = r.perCombination()
	st.Combinations = make([]Combination, r.count("combinations"))
	for i := range st.Combinations {
		c := Combination{Members: r.strings(), Safe: r.Ints(), Power: r.Float64()}
		// Keep the zero value for an absent order so encode/decode round
		// trips compare equal (only the full-membership record carries one).
		if o := r.Ints(); len(o) > 0 {
			c.Order = o
		}
		st.Combinations[i] = c
	}
	if n := r.count("blame"); n > 0 {
		st.Blamed = make([]BlameRecord, n)
	}
	for i := range st.Blamed {
		st.Blamed[i] = BlameRecord{
			Member:   r.String(),
			Phase:    r.String(),
			Query:    r.String(),
			Kind:     r.String(),
			Prior:    copyBytes(r.Blob()),
			Observed: copyBytes(r.Blob()),
		}
	}
	if r.bad != "" {
		return nil, fmt.Errorf("%w: %s out of range", ErrCorrupt, r.bad)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// validate enforces the cross-field invariants a decoder cannot express:
// per-provider arrays must align with the roster, and combination powers
// must be finite. Saving code maintains these by construction.
func (st *State) validate() error {
	g := len(st.Providers)
	if len(st.Counts) != g || len(st.CaseNs) != g {
		return fmt.Errorf("%w: %d providers with %d count vectors and %d population sizes",
			ErrCorrupt, g, len(st.Counts), len(st.CaseNs))
	}
	for _, c := range st.Combinations {
		if math.IsNaN(c.Power) || math.IsInf(c.Power, 0) {
			return fmt.Errorf("%w: non-finite combination power", ErrCorrupt)
		}
	}
	return nil
}

// copyBytes detaches a decoded blob from the payload buffer, keeping the
// zero value for an absent blob so encode/decode round trips compare equal.
func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// reader is a wire decoder that also remembers the first element count or
// stage value outside what the format allows.
type reader struct {
	*wire.Decoder
	bad string
}

func (r *reader) fail(field string) {
	if r.bad == "" {
		r.bad = field
	}
}

// count reads an element count before anything is allocated for it. Every
// counted element occupies at least 8 payload bytes, so a count above an
// eighth of the unread payload is a hostile or corrupt length field.
func (r *reader) count(field string) int {
	n := r.Uint64()
	if n > uint64(r.Remaining()/8) {
		r.fail(field)
		return 0
	}
	return int(n)
}

func (r *reader) strings() []string {
	out := make([]string, r.count("strings"))
	for i := range out {
		out[i] = r.String()
	}
	return out
}

func (r *reader) perCombination() [][]int {
	out := make([][]int, r.count("per-combination selections"))
	for i := range out {
		out[i] = r.Ints()
	}
	return out
}
