package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

// Test-local registrations use tags >= 1000, by convention.
type probeMsg struct{ V uint64 }

type probeMsg2 struct{ V uint64 }

func probeCodec() Codec {
	return Codec{
		Append: func(dst []byte, msg any) ([]byte, error) { return AppendUvarint(dst, msg.(probeMsg).V), nil },
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := ReadUvarint(b)
			if err != nil {
				return nil, b, err
			}
			return probeMsg{V: v}, rest, nil
		},
	}
}

func TestRegistrySemantics(t *testing.T) {
	Register(1000, probeMsg{}, probeCodec())
	Register(1000, probeMsg{}, probeCodec()) // idempotent re-registration

	if _, err := Marshal(probeMsg{}); err != nil {
		t.Fatalf("probeMsg not registered: %v", err)
	}
	if _, err := Marshal(probeMsg2{}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("Marshal of an unregistered type: %v, want ErrUnregistered", err)
	}

	mustPanic(t, "tag reuse across types", func() { Register(1000, probeMsg2{}, probeCodec()) })
	mustPanic(t, "type under second tag", func() { Register(1001, probeMsg{}, probeCodec()) })
	mustPanic(t, "nil prototype", func() { Register(1002, nil, probeCodec()) })
	mustPanic(t, "incomplete codec", func() { Register(1003, probeMsg2{}, Codec{}) })
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestMarshalDecodeRoundTrip(t *testing.T) {
	Register(1000, probeMsg{}, probeCodec())
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1} {
		enc, err := Marshal(probeMsg{V: v})
		if err != nil {
			t.Fatal(err)
		}
		if want := UvarintSize(1000) + UvarintSize(v); len(enc) != want {
			t.Fatalf("v=%d: encoded %d bytes, want tag and value, %d", v, len(enc), want)
		}
		dec, rest, err := Decode(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("v=%d: decode: %v", v, err)
		}
		if dec.(probeMsg).V != v {
			t.Fatalf("v=%d round-tripped to %d", v, dec.(probeMsg).V)
		}
	}
	if _, _, err := Decode([]byte{0xff}); err == nil {
		t.Fatal("truncated tag accepted")
	}
	if _, _, err := Decode(AppendUvarint(nil, 999999)); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("unknown tag: %v, want ErrUnregistered", err)
	}
}

func TestUvarintPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		b := AppendUvarint(nil, v)
		if len(b) != UvarintSize(v) {
			t.Fatalf("v=%d: size %d, encoded %d bytes", v, UvarintSize(v), len(b))
		}
		got, rest, err := ReadUvarint(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("v=%d: round trip got %d err %v", v, got, err)
		}
	}
	if _, _, err := ReadUvarint(nil); err == nil {
		t.Fatal("empty uvarint accepted")
	}
	if _, _, err := ReadInt(AppendInt(nil, 100), 99); err == nil {
		t.Fatal("out-of-bound int accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AppendInt did not panic")
		}
	}()
	AppendInt(nil, -1)
}

// TestReadUvarintRejectsNonMinimal: a varint spelled in more bytes than
// it needs is rejected, by ReadUvarint and by every reader built on it,
// while the minimal encodings of the same widths decode.
func TestReadUvarintRejectsNonMinimal(t *testing.T) {
	padded := []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00} // 1 in 10 bytes
	for _, b := range [][]byte{{0x80, 0x00}, {0xFF, 0x00}, padded} {
		if _, _, err := ReadUvarint(b); !errors.Is(err, ErrNonMinimal) {
			t.Errorf("ReadUvarint(% x): %v, want ErrNonMinimal", b, err)
		}
		if _, _, err := ReadInt(b, 1000); !errors.Is(err, ErrNonMinimal) {
			t.Errorf("ReadInt(% x): %v, want ErrNonMinimal", b, err)
		}
		if _, _, err := ReadString(append(bytes.Clone(b), make([]byte, 200)...)); !errors.Is(err, ErrNonMinimal) {
			t.Errorf("ReadString(% x ...): %v, want ErrNonMinimal", b, err)
		}
	}
	for _, v := range []uint64{0, 127, 128, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		if got, rest, err := ReadUvarint(AppendUvarint(nil, v)); err != nil || got != v || len(rest) != 0 {
			t.Errorf("minimal %d: got %d, %d bytes left, %v", v, got, len(rest), err)
		}
	}
}

func TestStringAndBytesPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		raw := make([]byte, rng.Intn(200))
		rng.Read(raw)
		s := string(raw)
		b := AppendString(nil, s)
		if want := UvarintSize(uint64(len(s))) + len(s); len(b) != want {
			t.Fatalf("string encoded to %d bytes, want %d", len(b), want)
		}
		got, rest, err := ReadString(b)
		if err != nil || got != s || len(rest) != 0 {
			t.Fatalf("string round trip failed: %v", err)
		}
		bb := AppendBytes(nil, raw)
		if !bytes.Equal(bb, b) {
			t.Fatalf("bytes and string encodings differ")
		}
		gb, rest, err := ReadBytes(bb)
		if err != nil || !bytes.Equal(gb, raw) || len(rest) != 0 {
			t.Fatalf("bytes round trip failed: %v", err)
		}
	}
	// Length prefix beyond the data is truncation, not an allocation.
	if _, _, err := ReadString(AppendUvarint(nil, 50)); err == nil {
		t.Fatal("truncated string accepted")
	}
	// Length prefix beyond MaxStringLen is rejected outright.
	if _, _, err := ReadBytes(AppendUvarint(nil, MaxStringLen+1)); err == nil {
		t.Fatal("oversized bytes length accepted")
	}
}

// TestReadStrings: a count or a length the bytes cannot hold fails with
// ErrTruncated before anything is allocated, a length over MaxStringLen
// fails even with the bytes present, and what decodes is a copy.
func TestReadStrings(t *testing.T) {
	enc := func(ss ...string) []byte {
		var b []byte
		for _, s := range ss {
			b = AppendString(b, s)
		}
		return b
	}
	cases := []struct {
		name  string
		in    []byte
		count int
		want  []string // nil with rest < 0: an error
		rest  int
	}{
		{"count over remaining bytes", enc("a", "b"), 5, nil, -1},
		{"length past the end", append(enc("a"), 50, 'x'), 2, nil, -1},
		{"length over MaxStringLen", append(AppendUvarint(nil, MaxStringLen+1), make([]byte, MaxStringLen+1)...), 1, nil, -1},
		{"count 0", enc("a"), 0, nil, 2},
		{"all empty", enc("", "", ""), 3, []string{"", "", ""}, 0},
		{"mixed, bytes left", append(enc("ab", "", "cde"), 7), 3, []string{"ab", "", "cde"}, 1},
	}
	for _, c := range cases {
		in := bytes.Clone(c.in)
		got, rest, err := ReadStrings(in, c.count)
		if c.rest < 0 {
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
			if len(rest) != len(in) {
				t.Errorf("%s: consumed %d bytes on error", c.name, len(in)-len(rest))
			}
			if errors.Is(err, ErrTruncated) {
				if allocs := testing.AllocsPerRun(10, func() { _, _, _ = ReadStrings(in, c.count) }); allocs != 0 {
					t.Errorf("%s: allocates %.0f objects before failing", c.name, allocs)
				}
			}
			continue
		}
		if err != nil || len(rest) != c.rest || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q, %d bytes left, %v; want %q, %d left", c.name, got, len(rest), err, c.want, c.rest)
		}
		clear(in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: result changed with its input: %q", c.name, got)
		}
	}
}

func TestSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		n := rng.Intn(200)
		s := types.NewSet(n)
		for k := 0; k < n; k++ {
			if rng.Intn(2) == 0 {
				s.Add(types.ProcessID(k))
			}
		}
		b := AppendSet(nil, s)
		if want := UvarintSize(uint64(n)) + 8*len(s.Words()); len(b) != want {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(b), want)
		}
		got, rest, err := ReadSet(b)
		if err != nil || len(rest) != 0 {
			t.Fatalf("n=%d: ReadSet: %v", n, err)
		}
		if got.UniverseSize() != n || !got.Equal(s) {
			t.Fatalf("n=%d: set round trip mismatch", n)
		}
	}
}

func TestSetDecodeRejectsAdversarial(t *testing.T) {
	// Stray bits beyond the declared universe must be rejected — they
	// would smuggle out-of-universe members past every quorum check.
	b := AppendUvarint(nil, 3)
	b = append(b, 0xFF, 0, 0, 0, 0, 0, 0, 0)
	if _, _, err := ReadSet(b); err == nil {
		t.Fatal("stray set bits accepted")
	}
	// A gigantic universe must be rejected before allocation.
	if _, _, err := ReadSet(AppendUvarint(nil, MaxUniverse+1)); err == nil {
		t.Fatal("oversized universe accepted")
	}
	// Truncated words.
	if _, _, err := ReadSet(AppendUvarint(nil, 100)); err == nil {
		t.Fatal("truncated set words accepted")
	}
}
