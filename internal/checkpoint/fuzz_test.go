package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode drives the checkpoint codec with arbitrary bytes. The contract
// under test: Decode never panics, never returns a state alongside an error,
// and any state it does accept re-encodes to exactly the input bytes — the
// codec is canonical, and the presized encoder counts every byte it writes —
// and decodes back to itself (no half-applied records).
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add(Encode(&State{}))
	f.Add(Encode(&State{
		Fingerprint: []byte{1, 2, 3},
		Providers:   []string{"gdo-0", "gdo-1"},
		Counts:      [][]int64{{4, 0, 2}, {1, 1, 1}},
		CaseNs:      []int64{8, 6},
		Stage:       StageMAF,
		LPrime:      []int{0, 2},
		PerMAF:      [][]int{{0, 2}},
	}))
	withBlame := sampleState()
	withBlame.Blamed = []BlameRecord{{Member: "gdo-2", Phase: "summary collection", Query: "summary",
		Kind: "equivocation", Prior: []byte{1, 2}, Observed: []byte{3}}}
	full := Encode(withBlame)
	f.Add(full)
	// Seed a few targeted mutations so the corpus starts near the
	// interesting branches: flipped CRC, skewed version, truncation.
	crcFlip := append([]byte(nil), full...)
	crcFlip[len(crcFlip)-2] ^= 0x40
	f.Add(crcFlip)
	verSkew := append([]byte(nil), full...)
	verSkew[11] = 0x7f
	f.Add(verSkew)
	f.Add(full[:len(full)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned both a state and an error")
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		// Accepted input: re-encoding must reproduce it byte for byte, and the
		// state must survive the round trip, proving nothing was dropped or
		// half-applied.
		re := Encode(st)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding an accepted record changed its bytes (%d -> %d)", len(data), len(re))
		}
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		if !statesEqual(st, st2) {
			t.Fatal("re-encode round trip changed the state")
		}
	})
}

// statesEqual compares states field by field, treating nil and empty slices
// as equal (the codec does not distinguish them).
func statesEqual(a, b *State) bool {
	if !bytes.Equal(a.Fingerprint, b.Fingerprint) || a.Stage != b.Stage {
		return false
	}
	if len(a.Providers) != len(b.Providers) {
		return false
	}
	for i := range a.Providers {
		if a.Providers[i] != b.Providers[i] {
			return false
		}
	}
	if !int64MatrixEqual(a.Counts, b.Counts) || !int64sEqual(a.CaseNs, b.CaseNs) {
		return false
	}
	if !intsEqual(a.LPrime, b.LPrime) || !intMatrixEqual(a.PerMAF, b.PerMAF) {
		return false
	}
	if !intsEqual(a.LDouble, b.LDouble) || !intMatrixEqual(a.PerLD, b.PerLD) {
		return false
	}
	if len(a.Combinations) != len(b.Combinations) {
		return false
	}
	for i := range a.Combinations {
		ca, cb := a.Combinations[i], b.Combinations[i]
		if len(ca.Members) != len(cb.Members) {
			return false
		}
		for j := range ca.Members {
			if ca.Members[j] != cb.Members[j] {
				return false
			}
		}
		if !intsEqual(ca.Safe, cb.Safe) || ca.Power != cb.Power || !intsEqual(ca.Order, cb.Order) {
			return false
		}
	}
	if len(a.Blamed) != len(b.Blamed) {
		return false
	}
	for i := range a.Blamed {
		ba, bb := a.Blamed[i], b.Blamed[i]
		if ba.Member != bb.Member || ba.Phase != bb.Phase || ba.Query != bb.Query || ba.Kind != bb.Kind ||
			!bytes.Equal(ba.Prior, bb.Prior) || !bytes.Equal(ba.Observed, bb.Observed) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intMatrixEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !intsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func int64MatrixEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !int64sEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
