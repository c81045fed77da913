package geotiff

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"
)

// hostileTIFF is a 94-byte little-endian TIFF whose tags claim a
// 4096×4096 float32 image in one 256 MiB strip that the file does not
// hold.
func hostileTIFF() []byte {
	le := binary.LittleEndian
	b := []byte{'I', 'I', 42, 0, 8, 0, 0, 0}
	entries := [][3]uint32{ // tag, type, value
		{tagImageWidth, typeLong, 4096},
		{tagImageLength, typeLong, 4096},
		{tagBitsPerSample, typeShort, 32},
		{tagCompression, typeShort, 1},
		{tagStripOffsets, typeLong, 8},
		{tagStripByteCounts, typeLong, 256 << 20},
		{tagSampleFormat, typeShort, 3},
	}
	b = le.AppendUint16(b, uint16(len(entries)))
	for _, e := range entries {
		b = le.AppendUint16(b, uint16(e[0]))
		b = le.AppendUint16(b, uint16(e[1]))
		b = le.AppendUint32(b, 1)
		b = le.AppendUint32(b, e[2])
	}
	return b
}

// TestReadSizesByFile: the hostile 94-byte file fails without
// allocating what its tags claim.
func TestReadSizesByFile(t *testing.T) {
	data := hostileTIFF()
	if len(data) != 94 {
		t.Fatalf("hostile file is %d bytes, want 94", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile file must fail")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte file", n, len(data))
	}
}

// TestReadRejectsLongDescription: an ImageDescription over 64 KiB is
// refused before it is read.
func TestReadRejectsLongDescription(t *testing.T) {
	im := randImage(t, 2, 2, 5)
	im.Description = string(bytes.Repeat([]byte{'x'}, maxDescription+1))
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("a description over 64 KiB must be rejected")
	}
}

// FuzzReadGeoTIFF: Read never panics, and whatever it accepts survives
// Write and Read again bit for bit.
func FuzzReadGeoTIFF(f *testing.F) {
	for i, desc := range []string{"", "ab", "2010-06-15"} {
		im, _ := NewImage(3, 2)
		for j := range im.Pixels {
			if j%2 == 0 {
				im.Pixels[j] = float32(i+j) / 3
			}
		}
		im.Description = desc
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	dated, _ := NewImage(1, 1)
	dated.SetDate(time.Date(2010, 6, 15, 0, 0, 0, 0, time.UTC))
	var buf bytes.Buffer
	if err := dated.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hostileTIFF())
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if got.Width != im.Width || got.Height != im.Height || got.Description != im.Description {
			t.Fatalf("round trip changed %dx%d %q into %dx%d %q",
				im.Width, im.Height, im.Description, got.Width, got.Height, got.Description)
		}
		for i := range im.Pixels {
			if math.Float32bits(got.Pixels[i]) != math.Float32bits(im.Pixels[i]) {
				t.Fatalf("pixel %d: %x became %x", i, math.Float32bits(im.Pixels[i]), math.Float32bits(got.Pixels[i]))
			}
		}
	})
}
