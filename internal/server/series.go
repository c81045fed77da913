package server

import (
	"fmt"
	"math"
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
// number grammar — JSON's, validated exactly as encoding/json does — and
// one conversion, reqParser.float, which gives strconv.ParseFloat's bits;
// accepted and rejected arrays, and the decoded values, are those of the
// []*float64 encoding. MarshalJSON writes each value with
// appendJSONFloat, byte for byte as encoding/json writes a float64.
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
