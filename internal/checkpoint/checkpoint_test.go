package checkpoint

import (
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

func sampleState() *State {
	return &State{
		Fingerprint: []byte{0xde, 0xad, 0xbe, 0xef},
		Providers:   []string{"gdo-1", "gdo-0", "gdo-2"},
		Counts:      [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		CaseNs:      []int64{12, 16, 20},
		Stage:       StageLD,
		LPrime:      []int{0, 1, 2},
		PerMAF:      [][]int{{0, 1, 2}, {0, 2}},
		LDouble:     []int{0, 2},
		PerLD:       [][]int{{0, 2}, {2}},
		Combinations: []Combination{
			{Members: []string{"gdo-0", "gdo-1", "gdo-2"}, Safe: []int{0, 2}, Power: 0.25, Order: []int{1, 2, 0}},
			{Members: []string{"gdo-0", "gdo-2"}, Safe: []int{2}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeDecodeZeroState(t *testing.T) {
	got, err := Decode(Encode(&State{}))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Stage != StageNone || len(got.Providers) != 0 {
		t.Errorf("zero state decoded to %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := Encode(sampleState())
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrCorrupt},
		{"short", func(b []byte) []byte { return b[:10] }, ErrCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCorrupt},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, ErrCorrupt},
		{"flipped crc", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, ErrCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xaa) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			st, err := Decode(b)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode error = %v, want %v", err, tc.wantErr)
			}
			if st != nil {
				t.Error("corrupt record decoded to a non-nil state")
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	b := Encode(sampleState())
	// Bump the version field (bytes 8..12) and re-stitch the CRC so only the
	// version check can reject it.
	b[11]++
	restitchCRC(b)
	st, err := Decode(b)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode error = %v, want ErrVersion", err)
	}
	if st != nil {
		t.Error("version-skewed record decoded to a non-nil state")
	}
}

func TestDecodeRejectsMisalignedRoster(t *testing.T) {
	st := sampleState()
	st.CaseNs = st.CaseNs[:1] // three providers, one population size
	if _, err := Decode(Encode(st)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode error = %v, want ErrCorrupt", err)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty Load error = %v, want ErrNotFound", err)
	}
	want := sampleState()
	if err := s.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("MemStore round trip mismatch")
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-Clear Load error = %v, want ErrNotFound", err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty Load error = %v, want ErrNotFound", err)
	}
	want := sampleState()
	if err := s.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// A second Save must atomically replace the first.
	want.Stage = StageMAF
	want.LDouble, want.PerLD, want.Combinations = nil, nil, nil
	if err := s.Save(want); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Stage != StageMAF || len(got.Combinations) != 0 {
		t.Errorf("Load returned stale state: %+v", got)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("idempotent Clear: %v", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-Clear Load error = %v, want ErrNotFound", err)
	}
}

// restitchCRC recomputes the trailer CRC after a deliberate header mutation.
func restitchCRC(b []byte) {
	body := b[8 : len(b)-4]
	crc := crc32.ChecksumIEEE(body)
	b[len(b)-4] = byte(crc >> 24)
	b[len(b)-3] = byte(crc >> 16)
	b[len(b)-2] = byte(crc >> 8)
	b[len(b)-1] = byte(crc)
}

// g5State is a snapshot shaped like the final one of a Table 4 assessment
// under the conservative policy with five providers: 10,000-SNP count
// vectors and 31 per-combination selections and results.
func g5State() *State {
	const g, snps, combos = 5, 10000, 31
	st := &State{
		Fingerprint: make([]byte, 32),
		Stage:       StageLD,
		CaseNs:      make([]int64, g),
	}
	sel := make([]int, 400)
	for i := range sel {
		sel[i] = 7 * i
	}
	for i := 0; i < g; i++ {
		st.Providers = append(st.Providers, "gdo-"+string(rune('a'+i)))
		counts := make([]int64, snps)
		for j := range counts {
			counts[j] = int64((i + j) % 300)
		}
		st.Counts = append(st.Counts, counts)
		st.CaseNs[i] = 150
	}
	st.LPrime = sel
	st.LDouble = sel[:350]
	for c := 0; c < combos; c++ {
		st.PerMAF = append(st.PerMAF, sel)
		st.PerLD = append(st.PerLD, sel[:350])
		st.Combinations = append(st.Combinations, Combination{Members: st.Providers[:1+c%g], Safe: sel[:300], Power: 0.5})
	}
	st.Combinations[0].Order = sel
	return st
}

// TestEncodeSingleAllocation pins the presized encoder: a save allocates the
// record it returns and nothing else.
func TestEncodeSingleAllocation(t *testing.T) {
	st := g5State()
	if allocs := testing.AllocsPerRun(20, func() { encoded = Encode(st) }); allocs != 1 {
		t.Errorf("Encode allocated %v times per call, want 1", allocs)
	}
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Error("G5-shaped state did not round-trip")
	}
}

// encoded keeps the measured encodes observable to the compiler.
var encoded []byte

func BenchmarkEncode(b *testing.B) {
	st := g5State()
	b.ReportAllocs()
	b.SetBytes(int64(len(Encode(st))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded = Encode(st)
	}
}
