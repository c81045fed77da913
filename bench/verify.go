package main

import (
	"encoding/json"
	"fmt"
	"math"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/server"
)

// digest is FNV-1a folded over 64-bit words instead of bytes: one
// multiply per result field keeps it under 0.2% of an op, and two runs
// of bit-identical outputs still print the same number.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d digest) word(w uint64) digest { return (d ^ digest(w)) * fnvPrime }

func (d digest) bytes(b []byte) digest {
	for len(b) >= 8 {
		d = d.word(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
		b = b[8:]
	}
	for _, c := range b {
		d = d.word(uint64(c))
	}
	return d
}

func (d digest) result(r core.Result) digest {
	return d.word(uint64(r.Status)).word(uint64(int64(r.BreakIndex))).
		word(math.Float64bits(r.MosumMean)).word(math.Float64bits(r.Sigma))
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// pixelOut is what one sampled pixel of one op produced, kept so the
// oracle comparison can run after the timed section.
type pixelOut struct {
	status core.Status
	brk    int
	mean   uint64 // float bits
	sigma  uint64
}

func outOf(r core.Result) pixelOut {
	return pixelOut{r.Status, r.BreakIndex, math.Float64bits(r.MosumMean), math.Float64bits(r.Sigma)}
}

// sameResult is the oracle rule: status, break index and the float bits
// of MosumMean and Sigma all agree with scalar core.Detect.
func sameResult(got pixelOut, want core.Result) bool {
	return got == outOf(want)
}

// sameMapPixel is the oracle rule for a BreakMap pixel, which carries
// only the break offset and the magnitude (NaN unless the status is ok).
func sameMapPixel(brk int, magnitude float64, want core.Result) bool {
	wantMag := math.NaN()
	if want.Status == core.StatusOK {
		wantMag = want.MosumMean
	}
	return brk == want.BreakIndex && math.Float64bits(magnitude) == math.Float64bits(wantMag)
}

// sameResponse checks one pixel of a parsed /v1/batch response against
// the oracle. encoding/json prints the shortest decimal that parses back
// to the same float64, so float bits survive the wire.
func sameResponse(got server.DetectResponse, want core.Result) bool {
	if got.Status != want.Status.String() || got.BreakIndex != want.BreakIndex ||
		got.ValidHistory != want.ValidHistory || got.Valid != want.Valid {
		return false
	}
	if want.Status != core.StatusOK {
		return got.Magnitude == nil && got.Sigma == nil
	}
	return got.Magnitude != nil && got.Sigma != nil &&
		math.Float64bits(*got.Magnitude) == math.Float64bits(want.MosumMean) &&
		math.Float64bits(*got.Sigma) == math.Float64bits(want.Sigma)
}

// verdictMatches compares a streaming session's verdict for one pixel
// with the offline result over the same dates, under the documented
// status mapping: a session never reports no-monitoring-data, it reports
// ok with zero valid monitoring observations.
func verdictMatches(v nrt.Verdict, w core.Result) bool {
	if w.Status == core.StatusNoMonitoringData {
		return v.Status == core.StatusOK && v.ValidMon == 0
	}
	if v.Status != w.Status || v.BreakOffset != w.BreakIndex {
		return false
	}
	return v.Status != core.StatusOK || math.Float64bits(v.Mean) == math.Float64bits(w.MosumMean)
}

// verdictFromJSON undoes server's wire form of a verdict.
func verdictFromJSON(j server.VerdictJSON) (nrt.Verdict, error) {
	st, err := statusFromString(j.Status)
	if err != nil {
		return nrt.Verdict{}, err
	}
	v := nrt.Verdict{Status: st, Break: j.Break, BreakOffset: j.BreakIndex,
		Process: math.NaN(), ValidMon: j.ValidMonitoring}
	if j.Process != nil {
		v.Process = *j.Process
	}
	if j.Magnitude != nil {
		v.Mean = *j.Magnitude
	}
	return v, nil
}

func statusFromString(s string) (core.Status, error) {
	for st := core.StatusOK; st <= core.StatusNoVariance; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown status %q", s)
}

// checkObserveBody verifies a session's final /v1/observe response
// against one offline core.DetectBatch over the dates it has seen.
func checkObserveBody(body []byte, offline []core.Result) (failed int, err error) {
	var resp server.ObserveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("observe response: %w", err)
	}
	if len(resp.Verdicts) != len(offline) {
		return 0, fmt.Errorf("observe response has %d verdicts, scene has %d pixels", len(resp.Verdicts), len(offline))
	}
	for i, j := range resp.Verdicts {
		v, err := verdictFromJSON(j)
		if err != nil {
			return 0, err
		}
		if !verdictMatches(v, offline[i]) {
			failed++
		}
	}
	return failed, nil
}
