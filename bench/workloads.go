package main

import (
	"fmt"
	"math"

	"bfast/internal/workload"
)

// kind selects which request shape a workload drives.
type kind int

const (
	kindBatch kind = iota // bfast.Detector.DetectBatch on pixel chunks
	kindCube              // bfast.ProcessCube, cube in, break map out
	kindServe             // POST /v1/batch over loopback TCP
	kindNRT               // /v1/fit, /v1/observe..., DELETE /v1/sessions
)

// fullSeconds is the run length the frozen op counts below were sized
// for (20-28 s timed per workload at the seed commit on two cores).
// -seconds scales every count by seconds/fullSeconds; the count for a
// given -seconds never depends on how fast the code under test is.
const fullSeconds = 25

// maxRounds is how many equal rounds the timed section is cut into; the
// per-round values give the run its own spread.
const maxRounds = 8

// def is one frozen workload. Everything the program under test sees is
// generated from Spec (with Spec.Seed taken from -seed).
type def struct {
	Name string
	Why  string
	Kind kind
	Spec workload.Spec
	// OptHistory is the history length of the detection options. It
	// differs from Spec.History only where the detected axis is not the
	// generated one (cube-swath drops empty dates first).
	OptHistory int
	// OpPx is the pixel count of one op: a chunk for the batch
	// workloads, the whole scene otherwise. kindServe cycles serveSizes.
	OpPx int
	// FullOps is the op count at -seconds fullSeconds.
	FullOps int
	// Cycle is the number of consecutive ops after which the input
	// repeats; rounds hold a whole number of cycles so that every round
	// does the same work.
	Cycle int
	// TailPct is the fixed tail percentile of the op latency.
	TailPct float64
	// Clients is the number of closed-loop callers, before the cap of
	// min(2, nproc).
	Clients int
}

// serveSizes is the pixel count of consecutive /v1/batch requests.
var serveSizes = [...]int{1, 1, 4, 1}

const (
	serveBodies    = 1024 // distinct pre-marshalled /v1/batch bodies
	serveCheckStep = 256  // every 256th response is parsed and checked
	oracleStep     = 64   // every 64th pixel of an op goes to the oracle
	nrtDates       = 114  // observes per full NRT session
)

// defs are the five workloads, in the order they run and print.
var defs = []def{
	{
		Name: "batch-clouds",
		Why:  "tile, linalg and core kernels do the work; clouds share masks and 8% of pixels break, so mask-class sharing and early exit must show here",
		Kind: kindBatch,
		Spec: workload.Spec{M: 98304, Width: 384, N: 235, History: 113, NaNFrac: .69,
			Mask: workload.MaskClouds, BreakFrac: .08},
		OptHistory: 113, OpPx: 16384, FullOps: 390, Cycle: 6, TailPct: 75, Clients: 1,
	},
	{
		Name: "batch-iid",
		Why:  "same layer, opposite traffic: every pixel its own mask, no breaks, series twice as long; the bypass workload where those optimisations must cost nothing",
		Kind: kindBatch,
		Spec: workload.Spec{M: 32768, N: 512, History: 256, NaNFrac: .5,
			Mask: workload.MaskIID},
		OptHistory: 256, OpPx: 8192, FullOps: 200, Cycle: 4, TailPct: 75, Clients: 1,
	},
	{
		Name: "cube-swath",
		Why:  "cube in, break map out: empty-slice removal, baseline.CLike and map assembly, not the tiled path; a kernel change must leave it flat",
		Kind: kindCube,
		Spec: workload.Spec{M: 24576, Width: 192, N: 350, History: 175, NaNFrac: .92,
			Mask: workload.MaskSwath, BreakFrac: .02, BreakShift: -.4},
		OptHistory: 128, OpPx: 24576, FullOps: 230, Cycle: 1, TailPct: 75, Clients: 1,
	},
	{
		Name: "serve-small",
		Why:  "1-4 pixel /v1/batch over loopback: the fixed cost of a call (decode, sched dispatch, one padded tile, encode, net/http, obs) is the work, per-pixel kernel speed is not",
		Kind: kindServe,
		Spec: workload.Spec{M: 2048, N: 228, History: 114, NaNFrac: .5,
			Mask: workload.MaskClouds, BreakFrac: .3},
		OptHistory: 114, OpPx: 0, FullOps: 140000, Cycle: len(serveSizes), TailPct: 95, Clients: 2,
	},
	{
		Name: "nrt-stream",
		Why:  "the stateful write path: fit, one observe per date with a snapshot and fsync each, delete; nrt, state and large-body JSON dominate",
		Kind: kindNRT,
		Spec: workload.Spec{M: 8192, N: 228, History: 114, NaNFrac: .5,
			Mask: workload.MaskClouds, BreakFrac: .1},
		OptHistory: 114, OpPx: 8192, FullOps: 12 * nrtDates, Cycle: nrtDates, TailPct: 95, Clients: 1,
	},
}

func findDef(name string) (def, error) {
	for _, d := range defs {
		if d.Name == name {
			return d, nil
		}
	}
	return def{}, fmt.Errorf("unknown workload %q", name)
}

// sizing is a def cut to one run: how many rounds of how many ops, and
// how large the scene is.
type sizing struct {
	def
	Rounds    int
	PerRound  int // ops per round, a multiple of Cycle (or a part of one NRT session)
	WarmupOps int // 5% of the ops, at least one cycle for the in-process kinds
}

func (s sizing) ops() int { return s.Rounds * s.PerRound }

// size cuts d to a run of the given length. pxDiv > 1 shrinks the scene
// (and the op) by that factor: the smoke test uses it, the benchmark
// never does.
func size(d def, seconds float64, pxDiv int) sizing {
	if pxDiv > 1 {
		d.Spec.M /= pxDiv
		if d.Spec.Width > 0 {
			d.Spec.Width /= pxDiv
		}
		d.OpPx /= pxDiv
	}
	ops := float64(d.FullOps) * seconds / fullSeconds
	s := sizing{def: d}
	if d.Kind == kindNRT {
		// A round is a session. Whole sessions when the run holds at
		// least one, else one short session.
		if ops >= nrtDates {
			s.Rounds = int(math.Round(ops / nrtDates))
			s.PerRound = nrtDates
		} else {
			s.Rounds = 1
			s.PerRound = int(math.Max(1, math.Round(ops)))
		}
		s.WarmupOps = int(math.Max(1, math.Round(0.05*float64(s.ops()))))
		return s
	}
	s.Rounds = maxRounds
	for s.Rounds > 1 && ops/float64(s.Rounds) < float64(d.Cycle) {
		s.Rounds--
	}
	cycles := int(math.Round(ops / float64(s.Rounds) / float64(d.Cycle)))
	if cycles < 1 {
		cycles = 1
	}
	s.PerRound = cycles * d.Cycle
	s.WarmupOps = int(math.Round(0.05 * float64(s.ops())))
	if s.WarmupOps < d.Cycle {
		s.WarmupOps = d.Cycle
	}
	return s
}
