package server

import (
	"fmt"
	"math"
	"strconv"
)

// Series is a pixel time series on the wire: a JSON array of numbers
// with null for each missing observation, held in memory as []float64
// with NaN for missing — the kernels' native encoding.
//
// It implements the JSON conversions by hand because the stock encoding
// for "nullable float" ([]*float64) costs one heap pointer per present
// value plus a reflect-driven decode. Request bodies do not reach
// UnmarshalJSON on the hot path: parseObject (reqjson.go) decodes their
// rows in its single scan, and only a body it declines comes here via
// the stock decoder. Both run the same reqParser.series, so there is one
// number grammar — JSON's, validated exactly as encoding/json does, then
// the same ParseFloat — and accepted and rejected arrays, and the
// decoded values, are those of the []*float64 encoding.
type Series []float64

// MarshalJSON renders NaN as null. Infinities are rejected the same way
// encoding/json rejects them for float64.
func (s Series) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	out := make([]byte, 0, 8*len(s)+2)
	out = append(out, '[')
	for i, v := range s {
		if i > 0 {
			out = append(out, ',')
		}
		switch {
		case math.IsNaN(v):
			out = append(out, "null"...)
		case math.IsInf(v, 0):
			return nil, fmt.Errorf("series: unsupported value %g", v)
		default:
			out = appendJSONFloat(out, v)
		}
	}
	return append(out, ']'), nil
}

// appendJSONFloat formats like encoding/json: shortest round-trip form,
// with the e-notation boundaries JSON readers expect.
func appendJSONFloat(out []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(out)
	out = strconv.AppendFloat(out, v, format, -1, 64)
	if format == 'e' {
		// Trim "e-06" style exponents to "e-6" as encoding/json does.
		if n := len(out); n >= start+4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	return out
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// UnmarshalJSON parses an array of numbers/nulls, or null, with
// reqParser.series; every byte of data but surrounding space must be
// part of that one value.
func (s *Series) UnmarshalJSON(data []byte) error {
	p := reqParser{in: data}
	p.space()
	out, ok := p.series()
	p.space()
	if !ok || p.pos != len(data) {
		return fmt.Errorf("series: expected an array of numbers or nulls, invalid at byte %d", p.pos)
	}
	*s = out
	return nil
}
