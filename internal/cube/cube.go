// Package cube implements the data-cube substrate of the application
// pipeline (§III-D of the paper): an image stack of W×H pixels × N dates,
// a compact binary file format standing in for the GeoTIFF stacks the
// paper loads (the paper's measured phases begin after decompression, so
// format fidelity is irrelevant — layout and chunking behaviour are what
// matter), removal of all-NaN slices ("for each individual image, one is
// given only about N=350 slices that contain any data"), chunk splitting
// for scenes that exceed device memory, and PPM/PGM rendering of
// break/magnitude maps (the Figs. 3/9/11 outputs).
package cube

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Cube is a W×H raster of time series with N dates. Values is laid out
// pixel-major ([pixel][date], row-major pixels), matching the kernel
// batches; NaN marks missing observations.
type Cube struct {
	Width, Height, Dates int
	Values               []float64
}

// New returns an all-NaN cube of the given dimensions.
func New(w, h, dates int) (*Cube, error) {
	if w <= 0 || h <= 0 || dates <= 0 {
		return nil, fmt.Errorf("cube: invalid dimensions %dx%dx%d", w, h, dates)
	}
	c := &Cube{Width: w, Height: h, Dates: dates, Values: make([]float64, w*h*dates)}
	for i := range c.Values {
		c.Values[i] = math.NaN()
	}
	return c, nil
}

// FromFlat wraps a flat pixel-major matrix as a cube.
func FromFlat(w, h, dates int, values []float64) (*Cube, error) {
	if w <= 0 || h <= 0 || dates <= 0 {
		return nil, fmt.Errorf("cube: invalid dimensions %dx%dx%d", w, h, dates)
	}
	if len(values) != w*h*dates {
		return nil, fmt.Errorf("cube: %d values != %d*%d*%d", len(values), w, h, dates)
	}
	return &Cube{Width: w, Height: h, Dates: dates, Values: values}, nil
}

// Pixels returns the number of pixels W·H.
func (c *Cube) Pixels() int { return c.Width * c.Height }

// Series returns pixel i's time series (a view).
func (c *Cube) Series(i int) []float64 {
	return c.Values[i*c.Dates : (i+1)*c.Dates]
}

// At returns the value of pixel (x, y) at date t.
func (c *Cube) At(x, y, t int) float64 {
	return c.Values[(y*c.Width+x)*c.Dates+t]
}

// Set assigns the value of pixel (x, y) at date t.
func (c *Cube) Set(x, y, t int, v float64) {
	c.Values[(y*c.Width+x)*c.Dates+t] = v
}

// DropEmptySlices removes dates on which every pixel is NaN — the
// preprocessing step of §III-D that shrinks the Africa stacks from 6873
// nominal dates to ~350 populated slices. It returns the compacted cube
// (sharing no storage with c) and the original date index of each kept
// slice. A cube with no populated slice returns an error.
func (c *Cube) DropEmptySlices() (*Cube, []int, error) {
	populated := make([]bool, c.Dates)
	for i := 0; i < c.Pixels(); i++ {
		s := c.Series(i)
		for t, v := range s {
			if !populated[t] && !math.IsNaN(v) {
				populated[t] = true
			}
		}
	}
	var keep []int
	for t, p := range populated {
		if p {
			keep = append(keep, t)
		}
	}
	if len(keep) == 0 {
		return nil, nil, fmt.Errorf("cube: every slice is empty")
	}
	out := &Cube{
		Width: c.Width, Height: c.Height, Dates: len(keep),
		Values: make([]float64, c.Pixels()*len(keep)),
	}
	for i := 0; i < c.Pixels(); i++ {
		src := c.Series(i)
		dst := out.Series(i)
		for j, t := range keep {
			dst[j] = src[t]
		}
	}
	return out, keep, nil
}

// Chunks splits the cube's pixels into count contiguous chunks of nearly
// equal size (the host-side chunking of §III-D for scenes that exceed
// device memory). Each chunk is a view: it shares storage with c.
func (c *Cube) Chunks(count int) []Chunk {
	pixels := c.Pixels()
	if count <= 0 {
		count = 1
	}
	if count > pixels {
		count = pixels
	}
	chunks := make([]Chunk, 0, count)
	base := pixels / count
	extra := pixels % count
	start := 0
	for i := 0; i < count; i++ {
		size := base
		if i < extra {
			size++
		}
		chunks = append(chunks, Chunk{
			Start:  start,
			Pixels: size,
			Dates:  c.Dates,
			Values: c.Values[start*c.Dates : (start+size)*c.Dates],
		})
		start += size
	}
	return chunks
}

// Chunk is a contiguous run of pixels of a cube.
type Chunk struct {
	// Start is the first pixel index of the chunk within the cube.
	Start int
	// Pixels is the number of pixels in the chunk.
	Pixels int
	// Dates is the series length.
	Dates int
	// Values is the chunk's pixel-major data (a view into the cube).
	Values []float64
}

// cubeMagic identifies the binary cube format ("BFC1").
var cubeMagic = [4]byte{'B', 'F', 'C', '1'}

// Write serializes the cube: a 16-byte header (magic, width, height,
// dates as little-endian uint32) followed by the values as float32
// little-endian (the precision satellite products ship in — NDMI values
// are derived from 16-bit reflectances, so float32 is lossless enough,
// and it halves the file size as the compressed GeoTIFFs would).
func (c *Cube) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(cubeMagic[:]); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(c.Width), uint32(c.Height), uint32(c.Dates)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, 4*c.Dates)
	for i := 0; i < c.Pixels(); i++ {
		s := c.Series(i)
		for j, v := range s {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(float32(v)))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readPiece is the most payload Read pulls in one go: memory grows with
// the bytes a file really holds, so a short file whose header claims
// gigabytes fails after at most one piece.
const readPiece = 1 << 20

// Read deserializes a cube written by Write. Values grows as the payload
// arrives, in pieces of at most readPiece bytes, so a truncated or
// hostile header cannot make Read allocate the size it claims.
func Read(r io.Reader) (*Cube, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	c := &Cube{Width: h.Width, Height: h.Height, Dates: h.Dates}
	total := h.Pixels() * h.Dates
	buf := make([]byte, min(4*total, readPiece))
	for len(c.Values) < total {
		piece := buf[:min(4*(total-len(c.Values)), len(buf))]
		if _, err := io.ReadFull(r, piece); err != nil {
			return nil, fmt.Errorf("cube: reading pixel %d: %w", len(c.Values)/h.Dates, err)
		}
		at := len(c.Values)
		c.Values = slices.Grow(c.Values, len(piece)/4)[:at+len(piece)/4]
		vals := c.Values[at:]
		for j := range vals {
			vals[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(piece[4*j:])))
		}
	}
	return c, nil
}

// WriteFile writes the cube to path.
func (c *Cube) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a cube from path.
func ReadFile(path string) (*Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
