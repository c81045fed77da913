package cube

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Header holds the dimensions of a cube file without its payload.
type Header struct {
	Width, Height, Dates int
}

// Pixels returns the pixel count.
func (h Header) Pixels() int { return h.Width * h.Height }

// ReadHeader reads just the 16-byte header of a cube stream.
func ReadHeader(r io.Reader) (Header, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Header{}, fmt.Errorf("cube: reading magic: %w", err)
	}
	if magic != cubeMagic {
		return Header{}, fmt.Errorf("cube: bad magic %q", magic[:])
	}
	var dims [3]uint32
	for i := range dims {
		if err := binary.Read(r, binary.LittleEndian, &dims[i]); err != nil {
			return Header{}, fmt.Errorf("cube: reading header: %w", err)
		}
	}
	h := Header{Width: int(dims[0]), Height: int(dims[1]), Dates: int(dims[2])}
	const maxDim = 1 << 20
	if h.Width <= 0 || h.Height <= 0 || h.Dates <= 0 ||
		h.Width > maxDim || h.Height > maxDim || h.Dates > maxDim ||
		h.Width*h.Height > (1<<30)/h.Dates {
		return Header{}, fmt.Errorf("cube: implausible dimensions %dx%dx%d", h.Width, h.Height, h.Dates)
	}
	return h, nil
}

// StreamChunks reads a cube file chunk by chunk without ever holding the
// whole cube in memory — the §III-D/§V-B host-side path for scenes whose
// uncompressed data exceed host memory ("they first get split into
// chunks"). The file's pixels are split into count contiguous chunks; fn
// is called once per chunk, in order, with a Chunk whose Values buffer is
// reused between calls (copy it if it must outlive fn).
func StreamChunks(path string, count int, fn func(Header, Chunk) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	h, err := ReadHeader(br)
	if err != nil {
		return err
	}
	pixels := h.Pixels()
	// A truncated file fails here, before the first chunk buffer is
	// sized by the header's claim.
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if need := 16 + 4*int64(pixels)*int64(h.Dates); fi.Size() < need {
		return fmt.Errorf("cube: file holds %d bytes, header %dx%dx%d needs %d",
			fi.Size(), h.Width, h.Height, h.Dates, need)
	}
	if count <= 0 {
		count = 1
	}
	if count > pixels {
		count = pixels
	}
	base := pixels / count
	extra := pixels % count
	var buf []byte
	var values []float64
	start := 0
	for i := 0; i < count; i++ {
		size := base
		if i < extra {
			size++
		}
		need := size * h.Dates
		if cap(values) < need {
			values = make([]float64, need)
			buf = make([]byte, 4*need)
		}
		values = values[:need]
		if _, err := io.ReadFull(br, buf[:4*need]); err != nil {
			return fmt.Errorf("cube: reading chunk %d: %w", i, err)
		}
		for j := range values {
			values[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:])))
		}
		chunk := Chunk{Start: start, Pixels: size, Dates: h.Dates, Values: values}
		if err := fn(h, chunk); err != nil {
			return err
		}
		start += size
	}
	return nil
}
