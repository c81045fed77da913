package server

import (
	"context"
	"io"
	"net/http"
	"strconv"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/stats"
	"bfast/internal/tile"
)

// DetectRequest is the request body of /v1/detect and /v1/trace; /v1/batch
// uses the same options with Pixels instead of Series.
type DetectRequest struct {
	// Series is the pixel time series; null = missing observation.
	Series Series `json:"series,omitempty"`
	// Pixels carries many series for /v1/batch.
	Pixels []Series `json:"pixels,omitempty"`
	// N optionally declares the series length; when present it must match
	// the data actually sent (every pixel row for /v1/batch), or the
	// request fails with length_mismatch. Lets generated clients assert
	// their framing survived serialization.
	N *int `json:"n,omitempty"`
	// History is n, the history length in dates (required).
	History int `json:"history"`
	requestOptions
}

// requestOptions are the detection options every fitting body carries
// (DetectRequest, FitHTTPRequest); unset fields take core's defaults.
type requestOptions struct {
	// Harmonics is k (default 3).
	Harmonics *int `json:"harmonics,omitempty"`
	// Frequency is f (default 23).
	Frequency *float64 `json:"frequency,omitempty"`
	// HFrac is the MOSUM window fraction (default 0.25).
	HFrac *float64 `json:"hfrac,omitempty"`
	// Level is the significance level (default 0.05).
	Level *float64 `json:"level,omitempty"`
	// Process is "mosum" (default) or "cusum".
	Process string `json:"process,omitempty"`
	// NoTrend drops the linear-trend regressor.
	NoTrend bool `json:"noTrend,omitempty"`
}

// DetectResponse is the per-pixel result.
type DetectResponse struct {
	Status       string   `json:"status"`
	BreakIndex   int      `json:"breakIndex"`
	Magnitude    *float64 `json:"magnitude,omitempty"`
	Sigma        *float64 `json:"sigma,omitempty"`
	ValidHistory int      `json:"validHistory"`
	Valid        int      `json:"valid"`
}

// TraceResponse is the /v1/trace body.
type TraceResponse struct {
	Status   string    `json:"status"`
	Dates    []int     `json:"dates,omitempty"`
	Process  []float64 `json:"process,omitempty"`
	Boundary []float64 `json:"boundary,omitempty"`
	BreakAt  int       `json:"breakAt"`
}

// options resolves the request's options for the given history length.
func (r *requestOptions) options(history int) core.Options {
	opt := core.DefaultOptions(history)
	if r.Harmonics != nil {
		opt.Harmonics = *r.Harmonics
	}
	if r.Frequency != nil {
		opt.Frequency = *r.Frequency
	}
	if r.HFrac != nil {
		opt.HFrac = *r.HFrac
	}
	if r.Level != nil {
		opt.Level = *r.Level
	}
	if r.Process == "cusum" {
		opt.Process = stats.ProcessCUSUM
	}
	opt.NoTrend = r.NoTrend
	return opt
}

// readBody drains the request body into buf, reusing its capacity. A
// full buffer grows to the largest of want, want/2, want/4, … within
// twice the bytes received plus 64 KiB, where want is Content-Length+1
// when the client declared a length within MaxBodyBytes and
// MaxBodyBytes+1 otherwise: an honest length is reached in a few
// doubling steps that land on it exactly, and a false one costs only in
// proportion to the bytes that arrived.
func (s *Server) readBody(r *http.Request, buf []byte) ([]byte, error) {
	want := s.cfg.MaxBodyBytes
	if r.ContentLength >= 0 && r.ContentLength < want {
		want = r.ContentLength
	}
	buf = buf[:0]
	src := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), nextBodyCap(len(buf), int(want)+1))
			buf = grown[:copy(grown, buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// nextBodyCap is the capacity a full body buffer of n bytes grows to on
// its way to want bytes (readBody).
func nextBodyCap(n, want int) int {
	limit := 2*n + 64<<10
	if want <= n { // the body outran its claim
		return limit
	}
	for want > limit {
		want /= 2
	}
	return want
}

// checkSeries validates a single-series request's framing: presence, the
// configured length cap, and the declared-n contract.
func (s *Server) checkSeries(req *DetectRequest) *apiError {
	if len(req.Series) == 0 {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "series is required")
	}
	if len(req.Series) > s.cfg.MaxSeriesLen {
		return errf(http.StatusBadRequest, CodeInvalidArgument,
			"series has %d dates, limit is %d", len(req.Series), s.cfg.MaxSeriesLen)
	}
	if req.N != nil && *req.N != len(req.Series) {
		return errf(http.StatusBadRequest, CodeLengthMismatch,
			"declared n=%d but series has %d dates", *req.N, len(req.Series))
	}
	return nil
}

// checkDesign validates opt for series of n dates and answers 400 when
// the design it implies would cost more than a request body may: the
// K×n design matrix and the tables the kernels read it through
// (tile.TablesLen), in float64s, against MaxBodyBytes/8. The pair table
// grows as K²·History, so without this bound a body of a few kilobytes
// could ask for gigabytes through harmonics alone.
func (s *Server) checkDesign(opt core.Options, n int) *apiError {
	if err := opt.Validate(n); err != nil {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if !designFits(opt, n, s.cfg.MaxBodyBytes/8) {
		return errf(http.StatusBadRequest, CodeInvalidArgument,
			"harmonics %d over %d dates (history %d) needs a design larger than the %d-byte body limit",
			opt.Harmonics, n, opt.History, s.cfg.MaxBodyBytes)
	}
	return nil
}

// designFits reports whether the design of opt over n dates and its
// tables fit in limit float64s; opt has passed Validate(n), so
// 0 < History < n. Necessary conditions go first, by division:
// Harmonics·n, so that forming K = 2·Harmonics+2 cannot overflow, then
// the design alone (K·n) and the pair table's K²·History/2. Past them
// every term of the total is below a few limits, so computing it cannot
// overflow.
func designFits(opt core.Options, n int, limit int64) bool {
	nd, h := int64(n), int64(opt.History)
	if int64(opt.Harmonics) > limit/nd {
		return false
	}
	k := int64(opt.K())
	if k > limit/nd || k*h > 2*limit/k {
		return false
	}
	return k*nd+int64(tile.TablesLen(opt.K(), opt.History, n)) <= limit
}

// resultReply is the body of /v1/detect and batchReply that of
// /v1/batch, one object per pixel, each a row. Both append the bytes
// encoding/json writes for the equivalent DetectResponse (a
// []DetectResponse for the batch), trailing newline included, without
// building one or reflecting over it; TestAppendResultJSONMatchesEncoder
// pins the equivalence.
type (
	resultReply core.Result
	batchReply  []core.Result
)

func (r resultReply) rows() int                  { return 1 }
func (r resultReply) appendHead(b []byte) []byte { return b }
func (r resultReply) appendTail(b []byte) []byte { return append(b, '\n') }

func (r resultReply) appendRows(b []byte, lo, hi int) []byte {
	if lo < hi {
		b = appendResultJSON(b, core.Result(r))
	}
	return b
}

func (rs batchReply) rows() int                  { return len(rs) }
func (rs batchReply) appendHead(b []byte) []byte { return append(b, '[') }
func (rs batchReply) appendTail(b []byte) []byte { return append(b, "]\n"...) }

func (rs batchReply) appendRows(b []byte, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendResultJSON(b, rs[i])
	}
	return b
}

// appendResultJSON appends one pixel's DetectResponse object.
func appendResultJSON(dst []byte, res core.Result) []byte {
	dst = append(dst, `{"status":"`...)
	dst = append(dst, res.Status.String()...)
	dst = append(dst, `","breakIndex":`...)
	dst = strconv.AppendInt(dst, int64(res.BreakIndex), 10)
	if res.Status == core.StatusOK {
		dst = append(dst, `,"magnitude":`...)
		dst = appendJSONFloat(dst, res.MosumMean)
		dst = append(dst, `,"sigma":`...)
		dst = appendJSONFloat(dst, res.Sigma)
	}
	dst = append(dst, `,"validHistory":`...)
	dst = strconv.AppendInt(dst, int64(res.ValidHistory), 10)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendInt(dst, int64(res.Valid), 10)
	return append(dst, '}')
}

func (s *Server) handleDetect(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError) {
	buf := s.getDecodeBuf()
	defer s.putDecodeBuf(buf)
	req, apiErr := decodeBody[DetectRequest](ctx, s, r, buf)
	if apiErr != nil {
		return nil, apiErr
	}
	if apiErr := s.checkSeries(req); apiErr != nil {
		return nil, apiErr
	}
	tr.Pixels = 1
	y := []float64(req.Series)
	opt := req.options(req.History)
	if apiErr := s.checkDesign(opt, len(y)); apiErr != nil {
		return nil, apiErr
	}
	x, err := core.DesignFor(opt, len(y))
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(ctx, err)
	}
	_, sp := obs.StartSpan(ctx, "detect")
	res, err := core.Detect(y, x, opt)
	sp.End()
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return resultReply(res), nil
}

func (s *Server) handleTrace(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError) {
	buf := s.getDecodeBuf()
	defer s.putDecodeBuf(buf)
	req, apiErr := decodeBody[DetectRequest](ctx, s, r, buf)
	if apiErr != nil {
		return nil, apiErr
	}
	if apiErr := s.checkSeries(req); apiErr != nil {
		return nil, apiErr
	}
	tr.Pixels = 1
	y := []float64(req.Series)
	opt := req.options(req.History)
	if apiErr := s.checkDesign(opt, len(y)); apiErr != nil {
		return nil, apiErr
	}
	x, err := core.DesignFor(opt, len(y))
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(ctx, err)
	}
	_, sp := obs.StartSpan(ctx, "trace")
	res, err := core.Trace(y, x, opt)
	sp.End()
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return TraceResponse{
		Status:   res.Status.String(),
		Dates:    res.Dates,
		Process:  res.Process,
		Boundary: res.Boundary,
		BreakAt:  res.BreakAt,
	}, nil
}

func (s *Server) handleBatch(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError) {
	buf := s.getDecodeBuf()
	defer s.putDecodeBuf(buf)
	req, apiErr := decodeBody[DetectRequest](ctx, s, r, buf)
	if apiErr != nil {
		return nil, apiErr
	}
	if len(req.Pixels) == 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "pixels is required")
	}
	if len(req.Pixels) > s.cfg.MaxBatchPixels {
		return nil, errf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch has %d pixels, limit is %d; split the request", len(req.Pixels), s.cfg.MaxBatchPixels)
	}
	n := len(req.Pixels[0])
	if req.N != nil {
		n = *req.N
	}
	if n < 1 || n > s.cfg.MaxSeriesLen {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument,
			"series has %d dates, want 1 to %d", n, s.cfg.MaxSeriesLen)
	}
	// Every row is checked before the declared n sizes the pack buffer,
	// so a body of short rows cannot allocate far beyond its own size.
	for i, p := range req.Pixels {
		if len(p) != n {
			return nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"pixel %d has %d dates, expected %d", i, len(p), n)
		}
	}
	opt := req.options(req.History)
	if apiErr := s.checkDesign(opt, n); apiErr != nil {
		return nil, apiErr
	}
	m := len(req.Pixels)
	tr.Pixels = m
	// /v1/batch runs the one tiled detector (core.DetectBatch), which is
	// bit-identical to scalar Detect; the kernel-phase spans land in
	// this request's trace under detect. Every row is n long and the
	// rows lie end to end in buf.vals (decodeBody), so its first m·n
	// values are the pixel-major matrix.
	dctx, sp := obs.StartSpan(ctx, "detect")
	b, err := core.NewBatch(m, n, buf.vals[:m*n])
	if err != nil {
		sp.End()
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	results, err := core.DetectBatch(dctx, b, opt, core.BatchConfig{Workers: s.cfg.Workers})
	sp.End()
	if err != nil {
		return nil, ctxError(ctx, err)
	}
	return batchReply(results), nil
}
