package state

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bfast/internal/core"
	"bfast/internal/obs"
)

func testSnapshot(m int) *SessionSnapshot {
	opt := core.DefaultOptions(100)
	opt.Lambda = 2.5
	s := &SessionSnapshot{
		ID:       "sess-1",
		History:  100,
		Capacity: 228,
		NextDate: 130,
		Options:  opt,
		Lambda:   2.5,
		Pixels:   make([]PixelSnapshot, m),
	}
	for i := range s.Pixels {
		switch i % 4 {
		case 0:
			s.Pixels[i] = PixelSnapshot{Status: core.StatusOK, MonitorState: core.MonitorState{
				Beta:     []float64{1.5, -0.25, 0.125, 3e-300, math.Inf(1), -0, 42, 1e17},
				NBar:     90 + i%7,
				Sigma:    0.0125 + float64(i),
				Window:   []float64{0.5, math.NaN(), -1e-20, 0.25},
				WPos:     2,
				Acc:      -0.75,
				ValidMon: 17,
				Sum:      2.25,
				Break:    i%8 - 1,
			}}
		case 1:
			s.Pixels[i] = PixelSnapshot{Status: core.StatusInsufficientHistory}
		case 2:
			s.Pixels[i] = PixelSnapshot{Status: core.StatusSingular}
		default:
			s.Pixels[i] = PixelSnapshot{Status: core.StatusNoVariance}
		}
	}
	return s
}

// pixelsEqual compares with NaN-safe float equality (reflect.DeepEqual
// treats NaN != NaN for float comparison via ==; DeepEqual actually
// compares NaN as unequal, so compare bit patterns).
func pixelsEqual(a, b PixelSnapshot) bool {
	if a.Status != b.Status || a.NBar != b.NBar || a.WPos != b.WPos ||
		a.ValidMon != b.ValidMon || a.Break != b.Break {
		return false
	}
	fb := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !fb(a.Sigma, b.Sigma) || !fb(a.Acc, b.Acc) || !fb(a.Sum, b.Sum) {
		return false
	}
	sl := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !fb(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return sl(a.Beta, b.Beta) && sl(a.Window, b.Window)
}

func TestCodecRoundTrip(t *testing.T) {
	want := testSnapshot(9)
	data := EncodeSession(want)
	got, err := DecodeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.History != want.History || got.Capacity != want.Capacity ||
		got.NextDate != want.NextDate || !reflect.DeepEqual(got.Options, want.Options) ||
		got.Lambda != want.Lambda || len(got.Pixels) != len(want.Pixels) {
		t.Fatalf("metadata diverged:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Pixels {
		if !pixelsEqual(got.Pixels[i], want.Pixels[i]) {
			t.Fatalf("pixel %d diverged:\n got %+v\nwant %+v", i, got.Pixels[i], want.Pixels[i])
		}
	}
}

// TestCodecPinnedV1 pins the BFSS v1 bytes: a state directory written by
// an earlier build must restore, so the encoding of a fixed snapshot
// must not move. The CRC-32C is over everything before the trailer.
func TestCodecPinnedV1(t *testing.T) {
	data := EncodeSession(testSnapshot(9))
	if got, want := len(data), 668; got != want {
		t.Fatalf("encoded length %d, pinned %d", got, want)
	}
	if got, want := crc32.Checksum(data[:len(data)-4], crcTable), uint32(0x78d0a17c); got != want {
		t.Fatalf("encoded CRC-32C %08x, pinned %08x", got, want)
	}
}

// reseal replaces data's trailing checksum with the correct one, so a
// test (or the fuzzer) reaches the body checks past the CRC gate.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))
}

func TestCodecRejectsCorruption(t *testing.T) {
	data := EncodeSession(testSnapshot(5))
	// Every single-byte flip anywhere must be rejected (checksum), and
	// every truncation must be rejected (frame or checksum).
	for _, off := range []int{0, 4, 6, 20, len(data) / 2, len(data) - 5, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeSession(bad); err == nil {
			t.Fatalf("flip at %d accepted", off)
		}
	}
	for _, n := range []int{0, 1, 7, 8, len(data) / 3, len(data) - 1} {
		if _, err := DecodeSession(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestCodecRejectsFutureVersion(t *testing.T) {
	data := EncodeSession(testSnapshot(1))
	data[4] = 0x7F // bump version; then re-checksum so only the version differs
	_, err := DecodeSession(reseal(data))
	if err == nil || !contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestCodecRejectsBadBody(t *testing.T) {
	// Reach the range-check layer with a valid checksum: encode a
	// snapshot with inconsistent geometry.
	s := testSnapshot(2)
	s.NextDate = s.Capacity + 5
	if _, err := DecodeSession(EncodeSession(s)); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	s = testSnapshot(2)
	s.Pixels[0].Status = core.Status(99)
	if _, err := DecodeSession(EncodeSession(s)); err == nil {
		t.Fatal("invalid pixel status accepted")
	}
	s = testSnapshot(2)
	s.Pixels[0].Break = s.Capacity
	if _, err := DecodeSession(EncodeSession(s)); err == nil {
		t.Fatal("out-of-range break accepted")
	}
}

// TestCodecRejectsNonCanonical: blobs that would decode but re-encode to
// different bytes — set reserved flags, a NoTrend byte other than 0/1 —
// are rejected.
func TestCodecRejectsNonCanonical(t *testing.T) {
	data := EncodeSession(testSnapshot(1))
	flagged := append([]byte(nil), data...)
	flagged[6] = 1
	if _, err := DecodeSession(reseal(flagged)); err == nil || !contains(err.Error(), "flags") {
		t.Fatalf("non-zero flags accepted: %v", err)
	}
	// NoTrend is the last options byte, just before the 8-byte λ and the
	// 8-byte pixel count.
	s := testSnapshot(0)
	data = EncodeSession(s)
	at := len(data) - 4 - 8 - 8 - 1
	if data[at] != 0 {
		t.Fatalf("offset %d is not the NoTrend byte", at)
	}
	data[at] = 2
	if _, err := DecodeSession(reseal(data)); err == nil || !contains(err.Error(), "no_trend") {
		t.Fatalf("NoTrend byte 2 accepted: %v", err)
	}
}

// FuzzDecodeSession: decoding never panics, and every accepted blob
// re-encodes to exactly its own bytes. Each input is also tried with
// its checksum repaired, so mutations reach the body parser.
func FuzzDecodeSession(f *testing.F) {
	for _, n := range []int{1, 9} {
		f.Add(EncodeSession(testSnapshot(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blobs := [][]byte{data}
		if len(data) >= frameMinLen {
			blobs = append(blobs, reseal(data))
		}
		for _, b := range blobs {
			s, err := DecodeSession(b)
			if err != nil {
				continue
			}
			if again := EncodeSession(s); string(again) != string(b) {
				t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", b, again)
			}
		}
	})
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCheckID(t *testing.T) {
	for _, ok := range []string{"a", "sess-42", "0123456789-abc"} {
		if err := CheckID(ok); err != nil {
			t.Errorf("CheckID(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "UPPER", "has space", "dot.dot", "../../etc/passwd", "a/b", string(long)} {
		if err := CheckID(bad); err == nil {
			t.Errorf("CheckID(%q) accepted", bad)
		}
	}
}

func storeSuite(t *testing.T, s Store) {
	ctx := context.Background()
	if _, err := s.Load(ctx, "missing-id"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing load: %v", err)
	}
	if err := s.Save(ctx, "sess-a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(ctx, "sess-b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(ctx, "sess-a", []byte("alpha-2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(ctx, "sess-a")
	if err != nil || string(got) != "alpha-2" {
		t.Fatalf("load after overwrite: %q %v", got, err)
	}
	ids, err := s.List(ctx)
	if err != nil || !reflect.DeepEqual(ids, []string{"sess-a", "sess-b"}) {
		t.Fatalf("list: %v %v", ids, err)
	}
	if err := s.Delete(ctx, "sess-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "sess-a"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s.Load(ctx, "sess-a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load after delete: %v", err)
	}
	if err := s.Save(ctx, "../evil", []byte("x")); err == nil {
		t.Fatal("path-traversal id accepted")
	}
	journalSuite(t, s)
}

// journalSuite: frames append in order, Save empties the journal, and
// Delete takes the journal with the base.
func journalSuite(t *testing.T, s Store) {
	t.Helper()
	ctx := context.Background()
	journal := func(id string) string {
		t.Helper()
		j, err := s.Journal(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	if got := journal("sess-j"); got != "" {
		t.Fatalf("journal of a fresh session: %q", got)
	}
	if err := s.Save(ctx, "sess-j", []byte("base")); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"one,", "two,", "three"} {
		if err := s.Append(ctx, "sess-j", []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	if got := journal("sess-j"); got != "one,two,three" {
		t.Fatalf("journal after three appends: %q", got)
	}
	if got := journal("sess-b"); got != "" {
		t.Fatalf("another session's journal: %q", got)
	}
	if err := s.Save(ctx, "sess-j", []byte("base-2")); err != nil {
		t.Fatal(err)
	}
	if got := journal("sess-j"); got != "" {
		t.Fatalf("journal after Save: %q", got)
	}
	if err := s.Append(ctx, "sess-j", []byte("four")); err != nil {
		t.Fatal(err)
	}
	if got := journal("sess-j"); got != "four" {
		t.Fatalf("journal after Save and an append: %q", got)
	}
	if got, err := s.Load(ctx, "sess-j"); err != nil || string(got) != "base-2" {
		t.Fatalf("base beside a journal: %q %v", got, err)
	}
	if err := s.Delete(ctx, "sess-j"); err != nil {
		t.Fatal(err)
	}
	if got := journal("sess-j"); got != "" {
		t.Fatalf("journal after Delete: %q", got)
	}
	if err := s.Append(ctx, "../evil", []byte("x")); err == nil {
		t.Fatal("path-traversal id accepted by Append")
	}
	if _, err := s.Journal(ctx, "../evil"); err == nil {
		t.Fatal("path-traversal id accepted by Journal")
	}
}

func TestMemStore(t *testing.T) { storeSuite(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	storeSuite(t, fs)

	// Stray files must not surface as sessions.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BAD!.bfsnap"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A journal without a base is not a session either.
	if err := fs.Append(context.Background(), "orphan", []byte("frame")); err != nil {
		t.Fatal(err)
	}
	ids, err := fs.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == "README.txt" || id == "BAD!" || id == "orphan" {
			t.Fatalf("stray file listed as session: %v", ids)
		}
	}
	// Delete removes both files.
	if err := fs.Save(context.Background(), "gone", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(context.Background(), "gone", []byte("frame")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(context.Background(), "gone"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gone.bfsnap", "gone.bfjournal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s after Delete: %v", name, err)
		}
	}

	// Snapshot survives a new store instance over the same directory
	// (the restart path).
	if err := fs.Save(context.Background(), "durable", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Load(context.Background(), "durable")
	if err != nil || string(got) != "payload" {
		t.Fatalf("reload: %q %v", got, err)
	}
	if err := fs.Append(context.Background(), "durable", []byte("frame")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs2.Journal(context.Background(), "durable"); err != nil || string(got) != "frame" {
		t.Fatalf("journal across store instances: %q %v", got, err)
	}
}

// TestMemStoreJournalIsolation: the store copies appended frames and
// hands out copies of its journal.
func TestMemStoreJournalIsolation(t *testing.T) {
	s := NewMemStore()
	ctx := context.Background()
	frame := []byte("frame")
	if err := s.Append(ctx, "iso", frame); err != nil {
		t.Fatal(err)
	}
	frame[0] = 'X'
	got, err := s.Journal(ctx, "iso")
	if err != nil || string(got) != "frame" {
		t.Fatalf("store aliased caller frame: %q %v", got, err)
	}
	got[0] = 'Y'
	if again, _ := s.Journal(ctx, "iso"); string(again) != "frame" {
		t.Fatal("Journal aliased store buffer")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	ctx := context.Background()
	data := []byte("mutable")
	if err := s.Save(ctx, "iso", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := s.Load(ctx, "iso")
	if err != nil || string(got) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q %v", got, err)
	}
	got[0] = 'Y'
	again, _ := s.Load(ctx, "iso")
	if string(again) != "mutable" {
		t.Fatal("load aliased store buffer")
	}
}
