package state

// Journal frame wire format (version 1).
//
// A session's journal is a sequence of frames appended after its base
// snapshot; each frame holds the inputs of one or more consecutive
// observe dates, which a restore replays through the same push step the
// observes ran:
//
//	magic   "BFJF"                     4 bytes
//	version uint16 little-endian       (currently 1)
//	flags   uint16 little-endian       (reserved, must be 0)
//	start   int64                      absolute index of the first date
//	dates   int64                      dates in the frame, >= 1
//	pixels  int64                      pixels per date, >= 1
//	hcrc    uint32                     CRC-32C over the 32 header bytes
//	values  dates*pixels float64 bits  date-major: values[d*pixels+i]
//	crc     uint32                     CRC-32C over everything before it
//
// The header carries its own checksum so a decoder can trust the frame
// length before the body is complete: a journal whose last frame is a
// strict prefix of a frame (a crash mid-append) is a torn tail, and
// everything before it stands; any other damage is corruption.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// journalVersion is the current journal frame format version.
const journalVersion = 1

var journalMagic = [4]byte{'B', 'F', 'J', 'F'}

const (
	frameHeaderLen = 4 + 2 + 2 + 3*8 // magic, version, flags, start, dates, pixels
	frameFixedLen  = frameHeaderLen + 4 + 4
)

// JournalFrame is one decoded journal frame: the values of Dates()
// consecutive dates starting at absolute date index Start.
type JournalFrame struct {
	Start  int
	Pixels int
	// Values is date-major: Values[d*Pixels+i] is pixel i on date Start+d.
	Values []float64
}

// Dates returns the number of dates the frame holds.
func (f JournalFrame) Dates() int { return len(f.Values) / f.Pixels }

// frameLen returns the encoded size of a frame of values.
func frameLen(values int) int { return frameFixedLen + 8*values }

// AppendFrame appends the encoded frame for the date-major values of
// len(values)/pixels dates starting at start to dst and returns the
// extended slice. len(values) must be a positive multiple of pixels.
func AppendFrame(dst []byte, start, pixels int, values []float64) []byte {
	at := len(dst)
	dst = append(dst, journalMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, journalVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0) // flags
	dst = binary.LittleEndian.AppendUint64(dst, uint64(start))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(values)/pixels))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pixels))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], crcTable))
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], crcTable))
}

// errTorn marks a frame cut short by the end of the journal.
var errTorn = errors.New("torn")

// DecodeJournal parses a journal into its frames. It returns the frames
// and the number of bytes they span; a result shorter than len(data)
// means the journal ends in a torn frame, which is dropped. Any other
// damage — a bad header checksum, magic, version or flags, a body
// checksum mismatch, a zero date or pixel count — is an error, and no
// frames are returned.
func DecodeJournal(data []byte) ([]JournalFrame, int, error) {
	var frames []JournalFrame
	off := 0
	for off < len(data) {
		f, n, err := decodeFrame(data[off:])
		if errors.Is(err, errTorn) {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("state: journal frame %d at offset %d: %w", len(frames), off, err)
		}
		frames = append(frames, f)
		off += n
	}
	return frames, off, nil
}

// decodeFrame parses the frame at the start of b, returning it and its
// encoded length, or errTorn when b is a strict prefix of a frame.
func decodeFrame(b []byte) (JournalFrame, int, error) {
	if len(b) < frameHeaderLen+4 {
		return JournalFrame{}, 0, errTorn
	}
	hdr := b[:frameHeaderLen]
	if want, got := binary.LittleEndian.Uint32(b[frameHeaderLen:]), crc32.Checksum(hdr, crcTable); want != got {
		return JournalFrame{}, 0, fmt.Errorf("header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	if [4]byte(hdr[:4]) != journalMagic {
		return JournalFrame{}, 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != journalVersion {
		return JournalFrame{}, 0, fmt.Errorf("version %d; this build reads version %d", v, journalVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return JournalFrame{}, 0, fmt.Errorf("flags %#04x; version %d reserves them as 0", f, journalVersion)
	}
	start := binary.LittleEndian.Uint64(hdr[8:16])
	dates := binary.LittleEndian.Uint64(hdr[16:24])
	pixels := binary.LittleEndian.Uint64(hdr[24:32])
	if start > math.MaxInt32 || dates < 1 || dates > math.MaxInt32 || pixels < 1 || pixels > math.MaxInt32 {
		return JournalFrame{}, 0, fmt.Errorf("geometry out of range: start=%d dates=%d pixels=%d", start, dates, pixels)
	}
	// Both factors are below 2^31, so the product cannot overflow.
	values := int(dates * pixels)
	if values > (len(b)-frameFixedLen)/8 {
		return JournalFrame{}, 0, errTorn
	}
	n := frameLen(values)
	if want, got := binary.LittleEndian.Uint32(b[n-4:]), crc32.Checksum(b[:n-4], crcTable); want != got {
		return JournalFrame{}, 0, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	f := JournalFrame{Start: int(start), Pixels: int(pixels), Values: make([]float64, values)}
	body := b[frameHeaderLen+4:]
	for i := range f.Values {
		f.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return f, n, nil
}
