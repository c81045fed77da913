package cube

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// hostileHeader is a bare 16-byte header claiming 1024×1024×16 values
// (64 MiB of payload, 128 MiB decoded) with no payload at all.
func hostileHeader() []byte {
	b := append([]byte(nil), cubeMagic[:]...)
	for _, v := range []uint32{1024, 1024, 16} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadSizesByBytesRead: a header-only file fails without allocating
// what its header claims.
func TestReadSizesByBytesRead(t *testing.T) {
	var err error
	n := allocated(func() { _, err = Read(bytes.NewReader(hostileHeader())) })
	if err == nil {
		t.Fatal("header-only file must fail")
	}
	if n >= 8<<20 {
		t.Fatalf("Read allocated %d bytes for a 16-byte file", n)
	}
}

// TestStreamChunksChecksFileSize: a truncated file fails before its
// first chunk buffer is allocated and before fn ever runs.
func TestStreamChunksChecksFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.bfc")
	if err := os.WriteFile(path, hostileHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	calls := 0
	n := allocated(func() {
		err = StreamChunks(path, 1, func(Header, Chunk) error { calls++; return nil })
	})
	if err == nil || calls != 0 {
		t.Fatalf("truncated file: err=%v after %d chunks", err, calls)
	}
	if n >= 8<<20 {
		t.Fatalf("StreamChunks allocated %d bytes for a 16-byte file", n)
	}
}

// FuzzReadCube: Read never panics, and whatever it accepts re-encodes
// to the bytes it read (a NaN may come back as another NaN: float32
// signalling NaNs are quieted on the way to float64).
func FuzzReadCube(f *testing.F) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 2, 5}} {
		c, _ := New(dims[0], dims[1], dims[2])
		for i := range c.Values {
			if i%3 != 0 {
				c.Values[i] = float64(float32(i) / 7)
			}
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(c.Values) != c.Pixels()*c.Dates {
			t.Fatalf("%dx%dx%d cube holds %d values", c.Width, c.Height, c.Dates, len(c.Values))
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again := buf.Bytes()
		if len(again) > len(data) || !bytes.Equal(again[:16], data[:16]) {
			t.Fatalf("accepted cube re-encodes to %d bytes from %d:\n in  %x\n out %x", len(again), len(data), data[:16], again[:16])
		}
		for o := 16; o < len(again); o += 4 {
			in := math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
			out := math.Float32frombits(binary.LittleEndian.Uint32(again[o:]))
			if !bytes.Equal(data[o:o+4], again[o:o+4]) && !(in != in && out != out) {
				t.Fatalf("sample at byte %d re-encodes as %x, read %x", o, again[o:o+4], data[o:o+4])
			}
		}
	})
}
