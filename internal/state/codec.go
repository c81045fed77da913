package state

// Snapshot wire format (version 1).
//
// A snapshot is a single self-verifying blob:
//
//	magic   "BFSS"                     4 bytes
//	version uint16 little-endian       (currently 1)
//	flags   uint16 little-endian       (reserved, must be 0)
//	body    version-defined fields
//	crc     uint32 little-endian       CRC-32C over everything before it
//
// All integers are 64-bit little-endian (signed values two's-complement);
// all floats are IEEE-754 bit patterns via math.Float64bits, which is
// what makes the round trip bit-exact — NaN payloads included. Decoding
// rejects, in order: blobs too short for the frame, checksum mismatches
// (covers truncation and corruption anywhere in the body), bad magic,
// versions other than this build's, non-zero flags, and then any body
// field that violates its documented range or has a non-canonical
// encoding (a bool byte other than 0 or 1), so every accepted blob
// re-encodes to the same bytes. The version field exists so a future
// format change can keep reading old snapshots; version 1 readers
// refuse newer snapshots loudly instead of misparsing them.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"bfast/internal/core"
	"bfast/internal/stats"
)

// Version is the current snapshot format version.
const Version = 1

var (
	magic       = [4]byte{'B', 'F', 'S', 'S'}
	crcTable    = crc32.MakeTable(crc32.Castagnoli)
	frameMinLen = len(magic) + 2 + 2 + 4 // header + trailing checksum
)

// PixelSnapshot is one pixel's durable monitor state: its fit Status
// and, for a live pixel (StatusOK), its core.MonitorState record. A
// pixel whose fit failed carries only its terminal Status and a zero
// record. The session-shared state (Options, Lambda, Capacity,
// NextDate) lives once on the SessionSnapshot. An NRT session keeps
// these records resident and pushes them in place, so the codec writes
// and reads the very structs the session advances.
type PixelSnapshot struct {
	Status core.Status
	core.MonitorState
}

// SessionSnapshot is the complete durable state of one NRT session.
type SessionSnapshot struct {
	// ID is the session identifier (see CheckID).
	ID string
	// History is n, the history length in dates.
	History int
	// Capacity is the designed series length N: History plus the maximum
	// number of monitoring dates the session can consume.
	Capacity int
	// NextDate is the absolute index of the next date Observe will
	// consume; monitors advance in lockstep, so it is session-level.
	NextDate int
	// Options is the session's full option set (Lambda resolved).
	Options core.Options
	// Lambda is the resolved boundary scale.
	Lambda float64
	// Pixels holds one entry per scene pixel, in scene order.
	Pixels []PixelSnapshot
}

// --- encoding -------------------------------------------------------------

type writer struct{ b []byte }

func (w *writer) u8(v byte)     { w.b = append(w.b, v) }
func (w *writer) i64(v int64)   { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }
func (w *writer) f64(v float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.i64(int64(len(s)))
	w.b = append(w.b, s...)
}
func (w *writer) floats(v []float64) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

// EncodeSession serializes a session snapshot into the versioned,
// checksummed wire format.
func EncodeSession(s *SessionSnapshot) []byte {
	// Presize: frame + meta + per-pixel payloads (β, window, scalars).
	size := frameMinLen + 64 + len(s.ID) + 13*8
	k := s.Options.K()
	for _, p := range s.Pixels {
		size += 1
		if p.Status == core.StatusOK {
			size += 8*(2+k+1+len(p.Window)) + 8*7
		}
	}
	w := &writer{b: make([]byte, 0, size)}
	w.b = append(w.b, magic[:]...)
	w.b = binary.LittleEndian.AppendUint16(w.b, Version)
	w.b = binary.LittleEndian.AppendUint16(w.b, 0) // flags

	w.str(s.ID)
	w.i64(int64(s.History))
	w.i64(int64(s.Capacity))
	w.i64(int64(s.NextDate))
	encodeOptions(w, s.Options)
	w.f64(s.Lambda)
	w.i64(int64(len(s.Pixels)))
	for _, p := range s.Pixels {
		w.u8(byte(p.Status))
		if p.Status != core.StatusOK {
			continue
		}
		w.floats(p.Beta)
		w.i64(int64(p.NBar))
		w.f64(p.Sigma)
		w.floats(p.Window)
		w.i64(int64(p.WPos))
		w.f64(p.Acc)
		w.i64(int64(p.ValidMon))
		w.f64(p.Sum)
		w.i64(int64(p.Break))
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, crcTable))
	return w.b
}

func encodeOptions(w *writer, o core.Options) {
	w.i64(int64(o.History))
	w.i64(int64(o.Harmonics))
	w.f64(o.Frequency)
	w.f64(o.HFrac)
	w.f64(o.Level)
	w.f64(o.Lambda)
	w.i64(int64(o.Boundary))
	w.i64(int64(o.Process))
	w.i64(int64(o.Sigma))
	w.i64(int64(o.Solver))
	w.i64(int64(o.MinValidHistory))
	if o.NoTrend {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// --- decoding -------------------------------------------------------------

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("state: snapshot "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated at offset %d (need %d more bytes)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// intv reads an i64 that must fit a non-negative int bounded by max.
func (r *reader) intv(what string, max int64) int {
	v := r.i64()
	if r.err == nil && (v < 0 || v > max) {
		r.fail("field %s=%d out of range [0,%d]", what, v, max)
	}
	return int(v)
}

func (r *reader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) str(maxLen int64) string {
	n := r.intv("string length", maxLen)
	return string(r.take(n))
}

func (r *reader) floats(what string, maxLen int64) []float64 {
	n := r.intv(what, maxLen)
	if r.err == nil && n > (len(r.b)-r.off)/8 {
		r.fail("truncated: %s=%d exceeds the remaining %d bytes", what, n, len(r.b)-r.off)
	}
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

// DecodeSession parses and verifies a snapshot blob. Every defense runs
// before any body field is trusted: frame size, checksum, magic,
// version, flags; body fields are then range-checked as they are read.
func DecodeSession(data []byte) (*SessionSnapshot, error) {
	if len(data) < frameMinLen {
		return nil, fmt.Errorf("state: snapshot truncated: %d bytes, frame needs at least %d", len(data), frameMinLen)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, crcTable); want != got {
		return nil, fmt.Errorf("state: snapshot checksum mismatch (stored %08x, computed %08x): corrupted or truncated", want, got)
	}
	if [4]byte(body[:4]) != magic {
		return nil, fmt.Errorf("state: bad snapshot magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != Version {
		return nil, fmt.Errorf("state: snapshot version %d; this build reads version %d", v, Version)
	}
	if f := binary.LittleEndian.Uint16(body[6:8]); f != 0 {
		return nil, fmt.Errorf("state: snapshot flags %#04x; version %d reserves them as 0", f, Version)
	}
	r := &reader{b: body, off: 8}

	s := &SessionSnapshot{}
	s.ID = r.str(64)
	if r.err == nil {
		if err := CheckID(s.ID); err != nil {
			return nil, err
		}
	}
	s.History = r.intv("history", math.MaxInt32)
	s.Capacity = r.intv("capacity", math.MaxInt32)
	s.NextDate = r.intv("next_date", math.MaxInt32)
	s.Options = decodeOptions(r)
	s.Lambda = r.f64()
	// Every pixel takes at least its status byte (every float at least
	// 8), so a corrupted length field fails here instead of turning into
	// a multi-gigabyte allocation.
	m := r.intv("pixels", math.MaxInt32)
	if r.err == nil && m > len(r.b)-r.off {
		r.fail("truncated: %d pixels exceed the remaining %d bytes", m, len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	if s.History <= 0 || s.Capacity <= s.History || s.NextDate < s.History || s.NextDate > s.Capacity {
		return nil, fmt.Errorf("state: snapshot geometry invalid: history=%d capacity=%d next=%d", s.History, s.Capacity, s.NextDate)
	}
	s.Pixels = make([]PixelSnapshot, m)
	for i := range s.Pixels {
		p := &s.Pixels[i]
		p.Status = core.Status(r.u8())
		if r.err != nil {
			return nil, r.err
		}
		switch p.Status {
		case core.StatusOK:
		case core.StatusInsufficientHistory, core.StatusSingular, core.StatusNoVariance:
			continue
		default:
			return nil, fmt.Errorf("state: pixel %d has invalid status %d", i, int(p.Status))
		}
		p.Beta = r.floats("beta length", 1024)
		p.NBar = r.intv("nbar", int64(s.History))
		p.Sigma = r.f64()
		p.Window = r.floats("window length", int64(s.History)+1)
		p.WPos = r.intv("wpos", int64(s.History))
		p.Acc = r.f64()
		p.ValidMon = r.intv("valid_mon", int64(s.Capacity))
		p.Sum = r.f64()
		p.Break = int(r.i64())
		if r.err != nil {
			return nil, r.err
		}
		if p.Break < -1 || p.Break >= s.Capacity-s.History {
			return nil, fmt.Errorf("state: pixel %d break offset %d out of range", i, p.Break)
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("state: snapshot has %d trailing bytes", len(r.b)-r.off)
	}
	return s, nil
}

func decodeOptions(r *reader) core.Options {
	var o core.Options
	o.History = r.intv("opt.history", math.MaxInt32)
	o.Harmonics = r.intv("opt.harmonics", 1024)
	o.Frequency = r.f64()
	o.HFrac = r.f64()
	o.Level = r.f64()
	o.Lambda = r.f64()
	o.Boundary = stats.BoundaryKind(r.intv("opt.boundary", 16))
	o.Process = stats.ProcessKind(r.intv("opt.process", 16))
	o.Sigma = stats.SigmaKind(r.intv("opt.sigma", 16))
	o.Solver = core.Solver(r.intv("opt.solver", 16))
	o.MinValidHistory = r.intv("opt.min_valid_history", math.MaxInt32)
	switch b := r.u8(); b {
	case 0, 1:
		o.NoTrend = b == 1
	default:
		r.fail("field opt.no_trend=%d is not a bool", b)
	}
	return o
}
