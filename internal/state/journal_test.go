package state

import (
	"math"
	"testing"
)

// testJournal encodes three frames for a 5-pixel session: one date at
// 130, two dates at 131, one date at 133. Values include NaN payloads,
// signed zeros and infinities.
func testJournal() ([]byte, []JournalFrame) {
	const m = 5
	vals := func(dates int, seed float64) []float64 {
		v := make([]float64, dates*m)
		for i := range v {
			v[i] = seed + float64(i)/8
		}
		v[0] = math.NaN()
		v[len(v)-1] = math.Copysign(0, -1)
		return v
	}
	frames := []JournalFrame{
		{Start: 130, Pixels: m, Values: vals(1, 0.5)},
		{Start: 131, Pixels: m, Values: vals(2, -3)},
		{Start: 133, Pixels: m, Values: append(vals(1, 1e300)[:m-1], math.Inf(-1))},
	}
	var data []byte
	for _, f := range frames {
		data = AppendFrame(data, f.Start, f.Pixels, f.Values)
	}
	return data, frames
}

func framesEqual(t *testing.T, got, want []JournalFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Start != w.Start || g.Pixels != w.Pixels || g.Dates() != w.Dates() || len(g.Values) != len(w.Values) {
			t.Fatalf("frame %d: start %d pixels %d dates %d, want %d %d %d",
				k, g.Start, g.Pixels, g.Dates(), w.Start, w.Pixels, w.Dates())
		}
		for i := range w.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
				t.Fatalf("frame %d value %d: %x, want %x", k, i,
					math.Float64bits(g.Values[i]), math.Float64bits(w.Values[i]))
			}
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	data, want := testJournal()
	if got, want := len(data), 3*frameFixedLen+8*4*5; got != want {
		t.Fatalf("journal is %d bytes, want %d", got, want)
	}
	got, n, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("decoded %d of %d bytes", n, len(data))
	}
	framesEqual(t, got, want)
	if got, n, err := DecodeJournal(nil); err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("empty journal: %d frames, %d bytes, %v", len(got), n, err)
	}
}

// TestJournalTornTail: a journal cut anywhere inside its last frame
// decodes to the frames before it, and reports where they end.
func TestJournalTornTail(t *testing.T) {
	data, want := testJournal()
	last := len(data) - frameLen(len(want[2].Values))
	for cut := last; cut < len(data); cut++ {
		got, n, err := DecodeJournal(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n != last {
			t.Fatalf("cut at %d: decoded %d bytes, want %d", cut, n, last)
		}
		framesEqual(t, got, want[:2])
	}
}

// TestJournalRejectsCorruption: a flipped byte anywhere in a frame that
// is not the last fails the whole journal, length fields included.
func TestJournalRejectsCorruption(t *testing.T) {
	data, want := testJournal()
	end := frameLen(len(want[0].Values)) + frameLen(len(want[1].Values))
	for off := 0; off < end; off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if got, _, err := DecodeJournal(bad); err == nil {
			t.Fatalf("flip at %d accepted (%d frames)", off, len(got))
		}
	}
}

// FuzzDecodeJournal: decoding never panics, and the accepted frames
// re-encode to exactly the bytes they were decoded from.
func FuzzDecodeJournal(f *testing.F) {
	data, _ := testJournal()
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add(AppendFrame(nil, 0, 1, []float64{1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, n, err := DecodeJournal(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoded %d bytes of %d", n, len(data))
		}
		var again []byte
		for _, fr := range frames {
			again = AppendFrame(again, fr.Start, fr.Pixels, fr.Values)
		}
		if string(again) != string(data[:n]) {
			t.Fatalf("accepted frames re-encode differently:\n in  %x\n out %x", data[:n], again)
		}
	})
}
