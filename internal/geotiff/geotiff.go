// Package geotiff reads and writes single-band float32 TIFF images — the
// uncompressed core of the GeoTIFF stacks the paper's pipeline ingests
// (§III-D: "the data are usually provided as GeoTIFF files"). The
// implementation covers baseline TIFF 6.0 with IEEE-float samples in both
// byte orders, which is what `gdal_translate -ot Float32 -co COMPRESS=NONE`
// emits; compression and geo-referencing keys are out of scope (the
// paper's measured pipeline starts after decompression, see DESIGN.md).
//
// The acquisition date can be carried in the ImageDescription tag as
// RFC 3339, YYYY-MM-DD or YYYYMMDD text (see dates.ParseDate), which
// Stack uses to order images into a data cube.
package geotiff

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"bfast/internal/dates"
)

// Image is a single-band float32 raster; NaN encodes missing pixels.
type Image struct {
	Width, Height int
	// Pixels is row-major, length Width*Height.
	Pixels []float32
	// Description is the ImageDescription tag (the acquisition date in
	// RFC 3339 when written by this package).
	Description string
}

// NewImage returns an all-NaN image.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("geotiff: invalid size %dx%d", w, h)
	}
	px := make([]float32, w*h)
	nan := float32(math.NaN())
	for i := range px {
		px[i] = nan
	}
	return &Image{Width: w, Height: h, Pixels: px}, nil
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) float32 { return im.Pixels[y*im.Width+x] }

// Set assigns the pixel at (x, y).
func (im *Image) Set(x, y int, v float32) { im.Pixels[y*im.Width+x] = v }

// Date parses the Description as an acquisition timestamp, accepting
// the formats dates.ParseDate knows (RFC 3339, YYYY-MM-DD, YYYYMMDD) —
// TIFF tags come from external tooling, so the parser behind the fuzz
// harness handles them.
func (im *Image) Date() (time.Time, error) {
	t, err := dates.ParseDate(im.Description)
	if err != nil {
		return time.Time{}, fmt.Errorf("geotiff: image has no parsable date (description %q): %w",
			im.Description, err)
	}
	return t, nil
}

// SetDate stores an acquisition timestamp in the Description tag.
func (im *Image) SetDate(t time.Time) { im.Description = t.UTC().Format(time.RFC3339) }

// TIFF tag ids used by this package.
const (
	tagImageWidth       = 256
	tagImageLength      = 257
	tagBitsPerSample    = 258
	tagCompression      = 259
	tagPhotometric      = 262
	tagImageDescription = 270
	tagStripOffsets     = 273
	tagSamplesPerPixel  = 277
	tagRowsPerStrip     = 278
	tagStripByteCounts  = 279
	tagSampleFormat     = 339
)

// TIFF field types.
const (
	typeByte  = 1
	typeASCII = 2
	typeShort = 3
	typeLong  = 4
)

// Write serializes the image as a little-endian baseline TIFF with one
// strip of IEEE-float samples.
func (im *Image) Write(w io.Writer) error {
	if len(im.Pixels) != im.Width*im.Height {
		return fmt.Errorf("geotiff: pixel buffer %d != %dx%d", len(im.Pixels), im.Width, im.Height)
	}
	le := binary.LittleEndian
	desc := []byte(im.Description)
	if len(desc) > 0 && desc[len(desc)-1] != 0 {
		desc = append(desc, 0) // ASCII tags are NUL-terminated
	}

	// Layout: header(8) | pixel strip | description | IFD. A description
	// of at most 4 bytes is stored inline in its IFD entry, as the spec
	// requires of any value that fits there.
	stripOff := uint32(8)
	stripLen := uint32(4 * len(im.Pixels))
	descOff := stripOff + stripLen
	descVal, descTail := descOff, desc
	if len(desc) <= 4 {
		var v [4]byte
		copy(v[:], desc)
		descVal, descTail = le.Uint32(v[:]), nil
	}
	ifdOff := descOff + uint32(len(descTail))
	if ifdOff%2 == 1 { // IFDs must be word-aligned
		ifdOff++
	}

	var hdr [8]byte
	hdr[0], hdr[1] = 'I', 'I'
	le.PutUint16(hdr[2:], 42)
	le.PutUint32(hdr[4:], ifdOff)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, stripLen)
	for i, v := range im.Pixels {
		le.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if len(descTail) > 0 {
		if _, err := w.Write(descTail); err != nil {
			return err
		}
	}
	if (descOff+uint32(len(descTail)))%2 == 1 {
		if _, err := w.Write([]byte{0}); err != nil {
			return err
		}
	}

	type entry struct {
		tag, typ uint16
		count    uint32
		value    uint32
	}
	entries := []entry{
		{tagImageWidth, typeLong, 1, uint32(im.Width)},
		{tagImageLength, typeLong, 1, uint32(im.Height)},
		{tagBitsPerSample, typeShort, 1, 32},
		{tagCompression, typeShort, 1, 1}, // uncompressed
		{tagPhotometric, typeShort, 1, 1}, // BlackIsZero
		{tagStripOffsets, typeLong, 1, stripOff},
		{tagSamplesPerPixel, typeShort, 1, 1},
		{tagRowsPerStrip, typeLong, 1, uint32(im.Height)},
		{tagStripByteCounts, typeLong, 1, stripLen},
		{tagSampleFormat, typeShort, 1, 3}, // IEEE float
	}
	if len(desc) > 0 {
		entries = append(entries, entry{tagImageDescription, typeASCII, uint32(len(desc)), descVal})
		// Keep entries sorted by tag as the spec requires.
		for i := len(entries) - 1; i > 0 && entries[i].tag < entries[i-1].tag; i-- {
			entries[i], entries[i-1] = entries[i-1], entries[i]
		}
	}

	ifd := make([]byte, 2+12*len(entries)+4)
	le.PutUint16(ifd, uint16(len(entries)))
	for i, e := range entries {
		off := 2 + 12*i
		le.PutUint16(ifd[off:], e.tag)
		le.PutUint16(ifd[off+2:], e.typ)
		le.PutUint32(ifd[off+4:], e.count)
		if e.typ == typeShort && e.count == 1 {
			le.PutUint16(ifd[off+8:], uint16(e.value))
		} else {
			le.PutUint32(ifd[off+8:], e.value)
		}
	}
	// Next-IFD pointer = 0 (single image).
	if _, err := w.Write(ifd); err != nil {
		return err
	}
	return nil
}

// Read limits: readPiece is the most strip data read in one go, and
// maxDescription the longest ImageDescription accepted (an acquisition
// date needs a few dozen bytes).
const (
	readPiece      = 1 << 20
	maxDescription = 64 << 10
)

// Read parses a single-band float32 TIFF in either byte order.
func Read(r io.ReaderAt) (*Image, error) {
	var hdr [8]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("geotiff: reading header: %w", err)
	}
	var bo binary.ByteOrder
	switch {
	case hdr[0] == 'I' && hdr[1] == 'I':
		bo = binary.LittleEndian
	case hdr[0] == 'M' && hdr[1] == 'M':
		bo = binary.BigEndian
	default:
		return nil, fmt.Errorf("geotiff: not a TIFF (byte-order %q)", hdr[:2])
	}
	if bo.Uint16(hdr[2:]) != 42 {
		return nil, fmt.Errorf("geotiff: bad magic %d", bo.Uint16(hdr[2:]))
	}
	ifdOff := int64(bo.Uint32(hdr[4:]))

	var cnt [2]byte
	if _, err := r.ReadAt(cnt[:], ifdOff); err != nil {
		return nil, fmt.Errorf("geotiff: reading IFD: %w", err)
	}
	n := int(bo.Uint16(cnt[:]))
	if n == 0 || n > 4096 {
		return nil, fmt.Errorf("geotiff: implausible IFD entry count %d", n)
	}
	raw := make([]byte, 12*n)
	if _, err := r.ReadAt(raw, ifdOff+2); err != nil {
		return nil, fmt.Errorf("geotiff: reading IFD entries: %w", err)
	}

	var (
		width, height        int
		bits, comp, sfmt     = 0, 1, 1
		samples              = 1
		stripOffs, stripLens []uint32
		descOff, descLen     uint32
	)
	for i := 0; i < n; i++ {
		e := raw[12*i:]
		tag := bo.Uint16(e)
		typ := bo.Uint16(e[2:])
		count := bo.Uint32(e[4:])
		val := func() uint32 {
			if typ == typeShort {
				return uint32(bo.Uint16(e[8:]))
			}
			return bo.Uint32(e[8:])
		}
		switch tag {
		case tagImageWidth:
			width = int(val())
		case tagImageLength:
			height = int(val())
		case tagBitsPerSample:
			bits = int(val())
		case tagCompression:
			comp = int(val())
		case tagSamplesPerPixel:
			samples = int(val())
		case tagSampleFormat:
			sfmt = int(val())
		case tagImageDescription:
			descLen = count
			if count <= 4 {
				descOff = uint32(ifdOff) + uint32(12*i) + 2 + 8
			} else {
				descOff = bo.Uint32(e[8:])
			}
		case tagStripOffsets:
			var err error
			stripOffs, err = readLongs(r, bo, e, typ, count)
			if err != nil {
				return nil, err
			}
		case tagStripByteCounts:
			var err error
			stripLens, err = readLongs(r, bo, e, typ, count)
			if err != nil {
				return nil, err
			}
		}
	}

	const maxDim = 1 << 20
	switch {
	case width <= 0 || height <= 0 || width > maxDim || height > maxDim || width*height > 1<<28:
		return nil, fmt.Errorf("geotiff: missing or implausible dimensions (%dx%d)", width, height)
	case comp != 1:
		return nil, fmt.Errorf("geotiff: compression %d unsupported (only baseline/uncompressed)", comp)
	case bits != 32 || sfmt != 3:
		return nil, fmt.Errorf("geotiff: need 32-bit IEEE-float samples, got %d-bit format %d", bits, sfmt)
	case samples != 1:
		return nil, fmt.Errorf("geotiff: need a single band, got %d samples/pixel", samples)
	case len(stripOffs) == 0 || len(stripOffs) != len(stripLens):
		return nil, fmt.Errorf("geotiff: inconsistent strip tables (%d offsets, %d lengths)",
			len(stripOffs), len(stripLens))
	case descLen > maxDescription:
		return nil, fmt.Errorf("geotiff: ImageDescription of %d bytes exceeds %d", descLen, maxDescription)
	}

	// Pixels grow as samples arrive and each strip is read in pieces of
	// at most readPiece bytes, never past the bytes the image still
	// needs, so a short file cannot make Read allocate what its tags
	// claim.
	im := &Image{Width: width, Height: height}
	total := width * height
	var buf []byte
	for s := range stripOffs {
		off, left := int64(stripOffs[s]), int64(stripLens[s])
		for left > 0 && len(im.Pixels) < total {
			k := int(min(left, readPiece, 4*int64(total-len(im.Pixels))))
			if cap(buf) < k {
				buf = make([]byte, k)
			}
			piece := buf[:k]
			if n, err := r.ReadAt(piece, off); n < k {
				return nil, fmt.Errorf("geotiff: reading strip %d: %w", s, err)
			}
			at := len(im.Pixels)
			im.Pixels = slices.Grow(im.Pixels, k/4)[:at+k/4]
			px := im.Pixels[at:]
			for j := range px {
				px[j] = math.Float32frombits(bo.Uint32(piece[4*j:]))
			}
			off += int64(k)
			left -= int64(k)
		}
	}
	if len(im.Pixels) < total {
		return nil, fmt.Errorf("geotiff: strips hold %d samples, image needs %d", len(im.Pixels), total)
	}
	if descLen > 0 {
		d := make([]byte, descLen)
		if _, err := r.ReadAt(d, int64(descOff)); err == nil {
			for len(d) > 0 && d[len(d)-1] == 0 {
				d = d[:len(d)-1]
			}
			im.Description = string(d)
		}
	}
	return im, nil
}

// readLongs reads a LONG/SHORT array tag (inline in entry e, or
// pointed to by it). A pointed-to array is sized only once its last
// byte is known to be in the file, so a short file cannot make it
// allocate what the tag's count claims.
func readLongs(r io.ReaderAt, bo binary.ByteOrder, e []byte, typ uint16, count uint32) ([]uint32, error) {
	if count == 0 || count > 1<<20 {
		return nil, fmt.Errorf("geotiff: implausible array tag count %d", count)
	}
	size := uint32(4)
	if typ == typeShort {
		size = 2
	}
	n := count * size
	raw := e[8:12]
	if n > 4 {
		off := int64(bo.Uint32(e[8:]))
		var last [1]byte
		if _, err := r.ReadAt(last[:], off+int64(n)-1); err != nil {
			return nil, fmt.Errorf("geotiff: reading array tag: %w", err)
		}
		raw = make([]byte, n)
		if _, err := r.ReadAt(raw, off); err != nil {
			return nil, fmt.Errorf("geotiff: reading array tag: %w", err)
		}
	}
	out := make([]uint32, count)
	for i := uint32(0); i < count; i++ {
		if typ == typeShort {
			out[i] = uint32(bo.Uint16(raw[2*i:]))
		} else {
			out[i] = bo.Uint32(raw[4*i:])
		}
	}
	return out, nil
}

// WriteFile writes the image to path.
func (im *Image) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := im.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads an image from path.
func ReadFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
