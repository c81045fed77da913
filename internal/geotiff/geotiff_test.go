package geotiff

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"bfast/internal/cube"
)

func randImage(t *testing.T, w, h int, seed int64) *Image {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	im, err := NewImage(w, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pixels {
		if rng.Float64() < 0.3 {
			continue // stay NaN
		}
		im.Pixels[i] = float32(rng.NormFloat64())
	}
	return im
}

func pixelsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	im := randImage(t, 13, 7, 1)
	im.SetDate(time.Date(2010, 6, 15, 0, 0, 0, 0, time.UTC))
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 13 || got.Height != 7 {
		t.Fatalf("size %dx%d", got.Width, got.Height)
	}
	if !pixelsEqual(im.Pixels, got.Pixels) {
		t.Fatal("pixels lost in round trip")
	}
	d, err := got.Date()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(time.Date(2010, 6, 15, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("date %v", d)
	}
}

func TestRoundTripNoDescription(t *testing.T) {
	im := randImage(t, 4, 4, 2)
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Description != "" {
		t.Fatalf("unexpected description %q", got.Description)
	}
	if _, err := got.Date(); err == nil {
		t.Fatal("date parse must fail without description")
	}
}

// TestRoundTripShortDescription: a description that fits the 4-byte
// value field of its IFD entry is stored there, and reads back intact.
func TestRoundTripShortDescription(t *testing.T) {
	for _, desc := range []string{"a", "ab", "abc", "abcd"} {
		im := randImage(t, 3, 2, 6)
		im.Description = desc
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Description != desc || !pixelsEqual(got.Pixels, im.Pixels) {
			t.Fatalf("description %q read back as %q", desc, got.Description)
		}
	}
}

func TestReadBigEndian(t *testing.T) {
	// Hand-build a 2x1 big-endian float32 TIFF.
	var buf bytes.Buffer
	be := binary.BigEndian
	px := []float32{1.5, -2.25}
	strip := make([]byte, 8)
	be.PutUint32(strip, math.Float32bits(px[0]))
	be.PutUint32(strip[4:], math.Float32bits(px[1]))
	buf.Write([]byte{'M', 'M', 0, 42, 0, 0, 0, 16}) // header, IFD at 16
	buf.Write(strip)                                // strip at offset 8
	entries := []struct {
		tag, typ uint16
		count    uint32
		value    uint32
	}{
		{tagImageWidth, typeLong, 1, 2},
		{tagImageLength, typeLong, 1, 1},
		{tagBitsPerSample, typeShort, 1, 32 << 16},
		{tagCompression, typeShort, 1, 1 << 16},
		{tagStripOffsets, typeLong, 1, 8},
		{tagSamplesPerPixel, typeShort, 1, 1 << 16},
		{tagStripByteCounts, typeLong, 1, 8},
		{tagSampleFormat, typeShort, 1, 3 << 16},
	}
	var cnt [2]byte
	be.PutUint16(cnt[:], uint16(len(entries)))
	buf.Write(cnt[:])
	for _, e := range entries {
		var raw [12]byte
		be.PutUint16(raw[0:], e.tag)
		be.PutUint16(raw[2:], e.typ)
		be.PutUint32(raw[4:], e.count)
		be.PutUint32(raw[8:], e.value)
		buf.Write(raw[:])
	}
	buf.Write([]byte{0, 0, 0, 0})
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 2 || got.Height != 1 || got.Pixels[0] != 1.5 || got.Pixels[1] != -2.25 {
		t.Fatalf("big-endian decode wrong: %+v", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a tiff at all"),
		{'I', 'I', 41, 0, 8, 0, 0, 0},
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadRejectsUnsupported(t *testing.T) {
	im := randImage(t, 3, 3, 3)
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Patch the compression tag value to 5 (LZW): find tag 259.
	le := binary.LittleEndian
	ifd := le.Uint32(data[4:])
	n := int(le.Uint16(data[ifd:]))
	for i := 0; i < n; i++ {
		off := int(ifd) + 2 + 12*i
		if le.Uint16(data[off:]) == tagCompression {
			le.PutUint16(data[off+8:], 5)
		}
	}
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("LZW must be rejected")
	}
}

func TestFileRoundTrip(t *testing.T) {
	im := randImage(t, 8, 5, 4)
	im.SetDate(time.Date(2001, 2, 3, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "x.tif")
	if err := im.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !pixelsEqual(im.Pixels, got.Pixels) {
		t.Fatal("file round trip lost pixels")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.tif")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestStackBuildsOrderedCube(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	// Deliberately out of order.
	var images []*Image
	for _, day := range []int{32, 0, 16} {
		im := randImage(t, 4, 3, int64(100+day))
		im.SetDate(base.AddDate(0, 0, day))
		images = append(images, im)
	}
	c, axis, err := Stack(images)
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 4 || c.Height != 3 || c.Dates != 3 {
		t.Fatalf("cube %dx%dx%d", c.Width, c.Height, c.Dates)
	}
	if axis.Len() != 3 || !axis.Times[0].Equal(base) {
		t.Fatalf("axis wrong: %v", axis.Times)
	}
	// Cube date 1 must be the day-16 image (sorted), pixel (2,1).
	want := float64(images[2].At(2, 1))
	got := c.At(2, 1, 1)
	if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
		t.Fatalf("cube value %v, want %v", got, want)
	}
}

func TestStackErrors(t *testing.T) {
	if _, _, err := Stack(nil); err == nil {
		t.Fatal("empty stack must fail")
	}
	a := randImage(t, 4, 4, 5)
	a.SetDate(time.Now())
	b := randImage(t, 5, 4, 6)
	b.SetDate(time.Now().Add(time.Hour))
	if _, _, err := Stack([]*Image{a, b}); err == nil {
		t.Fatal("mismatched sizes must fail")
	}
	c := randImage(t, 4, 4, 7)
	if _, _, err := Stack([]*Image{a, c}); err == nil {
		t.Fatal("undated image must fail")
	}
}

func TestSliceInverseOfStack(t *testing.T) {
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	var images []*Image
	for i := 0; i < 4; i++ {
		im := randImage(t, 5, 5, int64(200+i))
		im.SetDate(base.AddDate(0, 0, 16*i))
		images = append(images, im)
	}
	c, axis, err := Stack(images)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 4; ti++ {
		back, err := Slice(c, ti, axis.Times[ti])
		if err != nil {
			t.Fatal(err)
		}
		if !pixelsEqual(back.Pixels, images[ti].Pixels) {
			t.Fatalf("slice %d differs from source image", ti)
		}
	}
	if _, err := Slice(c, 99, base); err == nil {
		t.Fatal("out-of-range slice must fail")
	}
}

func TestNaNFractionAndIsEmpty(t *testing.T) {
	im, _ := NewImage(2, 2)
	if !im.IsEmpty() || im.NaNFraction() != 1 {
		t.Fatal("fresh image must be empty")
	}
	im.Set(0, 0, 1)
	if im.IsEmpty() || im.NaNFraction() != 0.75 {
		t.Fatalf("NaN fraction %v", im.NaNFraction())
	}
}

func TestEndToEndTIFFStackDetection(t *testing.T) {
	// Round-trip a generated scene through TIFF files, restack, detect.
	src, _ := cube.New(8, 8, 96)
	rng := rand.New(rand.NewSource(8))
	for p := 0; p < 64; p++ {
		for ti := 0; ti < 96; ti++ {
			if rng.Float64() < 0.3 {
				continue
			}
			v := 0.5 + 0.3*math.Sin(2*math.Pi*float64(ti+1)/23) + rng.NormFloat64()*0.03
			if p < 16 && ti >= 72 {
				v -= 0.6
			}
			src.Values[p*96+ti] = v
		}
	}
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	var files []string
	for ti := 0; ti < 96; ti++ {
		im, err := Slice(src, ti, base.AddDate(0, 0, 16*ti))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, time.Now().Format("x")+string(rune('a'+ti%26))+string(rune('0'+ti/26))+".tif")
		path = filepath.Join(dir, fmtIdx(ti))
		if err := im.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	var images []*Image
	for _, f := range files {
		im, err := ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, im)
	}
	c, axis, err := Stack(images)
	if err != nil {
		t.Fatal(err)
	}
	if axis.Len() != 96 {
		t.Fatalf("axis %d", axis.Len())
	}
	for i := range src.Values {
		a := src.Values[i]
		b := float64(float32(src.Values[i]))
		g := c.Values[i]
		_ = a
		if g != b && !(math.IsNaN(g) && math.IsNaN(b)) {
			t.Fatalf("restacked value %d: %v vs %v", i, g, b)
		}
	}
}

func fmtIdx(i int) string {
	return string([]byte{'i', byte('0' + i/10%10), byte('0' + i%10), '.', 't', 'i', 'f'})
}

// TestReadNeverPanicsOnGarbage: random byte soup must error, not panic.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		data := make([]byte, n)
		rng.Read(data)
		if trial%3 == 0 && n >= 8 {
			data[0], data[1] = 'I', 'I'
			binary.LittleEndian.PutUint16(data[2:], 42)
		}
		_, _ = Read(bytes.NewReader(data)) // must not panic
	}
}
