package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
)

// FitHTTPRequest is the body of POST /v1/fit: the per-pixel history
// matrix plus the option fields shared with /v1/detect.
type FitHTTPRequest struct {
	// Pixels is the scene's history: one row per pixel, each exactly
	// History dates long (null = missing).
	Pixels []Series `json:"pixels"`
	// Capacity is the designed series length — History plus every
	// monitoring date the session will ever observe. 0 defaults to
	// 2×History (one full monitoring period).
	Capacity int `json:"capacity,omitempty"`
	// History is n, the history length in dates (required).
	History int `json:"history"`
	requestOptions
}

// ObserveHTTPRequest is the body of POST /v1/observe: one or more new
// acquisition dates for a session, date-major — each row carries the
// whole scene's values for one date, in fit pixel order.
type ObserveHTTPRequest struct {
	Session string   `json:"session"`
	Dates   []Series `json:"dates"`
}

// VerdictJSON is one pixel's standing on the wire. NaN process values
// (missing latest observation, unmonitored pixel) are omitted — JSON
// has no NaN.
type VerdictJSON struct {
	Status          string   `json:"status"`
	Break           bool     `json:"break"`
	BreakIndex      int      `json:"breakIndex"`
	Process         *float64 `json:"process,omitempty"`
	Magnitude       *float64 `json:"magnitude,omitempty"`
	ValidMonitoring int      `json:"validMonitoring"`
}

// ObserveResponse is the body of a successful /v1/observe.
type ObserveResponse struct {
	Session   string        `json:"session"`
	Dates     int           `json:"dates"`
	NextDate  int           `json:"next_date"`
	Remaining int           `json:"remaining"`
	Breaks    int           `json:"breaks"`
	Verdicts  []VerdictJSON `json:"verdicts"`
}

// SessionsResponse is the body of GET /v1/sessions without ?session=.
type SessionsResponse struct {
	Sessions []nrt.Info `json:"sessions"`
}

// nrtError maps manager errors onto the structured code set.
func nrtError(ctx context.Context, err error) *apiError {
	switch {
	case errors.Is(err, nrt.ErrNotFound):
		return errf(http.StatusNotFound, CodeNotFound, "%v", err)
	case errors.Is(err, nrt.ErrExhausted):
		return errf(http.StatusConflict, CodeSessionExhausted, "%v", err)
	case errors.Is(err, nrt.ErrPersist):
		return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	default:
		return ctxError(ctx, err)
	}
}

func (s *Server) handleFit(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeUnavailable, "draining for shutdown")
	}
	buf := s.getDecodeBuf()
	defer s.putDecodeBuf(buf)
	req, apiErr := decodeBody[FitHTTPRequest](ctx, s, r, buf)
	if apiErr != nil {
		return nil, apiErr
	}
	m := len(req.Pixels)
	if m == 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "pixels is required")
	}
	if m > s.cfg.MaxBatchPixels {
		return nil, errf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"scene has %d pixels, limit is %d; split the scene", m, s.cfg.MaxBatchPixels)
	}
	if req.History <= 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "history must be positive")
	}
	if req.History > s.cfg.MaxSeriesLen {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument,
			"history has %d dates, limit is %d", req.History, s.cfg.MaxSeriesLen)
	}
	if req.Capacity == 0 {
		req.Capacity = 2 * req.History
	}
	if req.Capacity > s.cfg.NRT.MaxCapacity {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument,
			"capacity %d exceeds the limit %d", req.Capacity, s.cfg.NRT.MaxCapacity)
	}
	// Both bounds hold before the pack buffer is sized by history.
	if err := nrt.CheckCapacity(req.Capacity, req.History); err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	opt := req.options(req.History)
	if apiErr := s.checkDesign(opt, req.Capacity); apiErr != nil {
		return nil, apiErr
	}
	if s.nrtMgr.Len() >= s.cfg.NRT.MaxSessions {
		return nil, errf(http.StatusTooManyRequests, CodeRateLimited,
			"session limit %d reached; delete a session first", s.cfg.NRT.MaxSessions)
	}
	for i, p := range req.Pixels {
		if len(p) != req.History {
			return nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"pixel %d has %d dates, history is %d", i, len(p), req.History)
		}
	}
	tr.Pixels = m
	// The rows lie end to end in buf.vals (decodeBody), each History long.
	sum, err := s.nrtMgr.Fit(ctx, nrt.FitRequest{
		Options: opt, Pixels: m, History: buf.vals[:m*req.History], Capacity: req.Capacity,
	})
	if err != nil {
		return nil, nrtError(ctx, err)
	}
	// Stitch the session onto the request's trace: the /v1/observe
	// requests that follow carry the same ID, so logs and traces of one
	// session's lifetime correlate.
	tr.Session = sum.ID
	return sum, nil
}

func (s *Server) handleObserve(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeUnavailable, "draining for shutdown")
	}
	buf := s.getDecodeBuf()
	defer s.putDecodeBuf(buf)
	req, apiErr := decodeBody[ObserveHTTPRequest](ctx, s, r, buf)
	if apiErr != nil {
		return nil, apiErr
	}
	if req.Session == "" {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "session is required")
	}
	tr.Session = req.Session
	if len(req.Dates) == 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "dates is required")
	}
	m, err := s.nrtMgr.Pixels(req.Session)
	if err != nil {
		return nil, nrtError(ctx, err)
	}
	tr.Pixels = m
	for d, row := range req.Dates {
		if len(row) != m {
			return nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"date %d has %d values, session %s has %d pixels", d, len(row), req.Session, m)
		}
	}
	// The date rows lie end to end in buf.vals (decodeBody), each m long.
	res, err := s.nrtMgr.Observe(ctx, req.Session, buf.vals[:len(req.Dates)*m], len(req.Dates))
	if err != nil {
		return nil, nrtError(ctx, err)
	}
	return observeReply{res}, nil
}

// observeReply is the body of a successful /v1/observe. It appends its
// JSON straight from the manager's result, one verdict per row: the
// bytes encoding/json writes for the equivalent ObserveResponse — same
// field order, same number formatting, NaN and ±Inf process values
// omitted, trailing newline — without building one or reflecting over
// it.
type observeReply struct{ res nrt.ObserveResult }

func (o observeReply) rows() int { return len(o.res.Verdicts) }

// release returns the verdicts to the manager's pool once the reply is
// written.
func (o observeReply) release() { o.res.Release() }

func (o observeReply) appendHead(b []byte) []byte {
	r := &o.res
	b = append(b, `{"session":`...)
	b = appendJSONString(b, r.ID)
	b = append(b, `,"dates":`...)
	b = strconv.AppendInt(b, int64(r.Dates), 10)
	b = append(b, `,"next_date":`...)
	b = strconv.AppendInt(b, int64(r.NextDate), 10)
	b = append(b, `,"remaining":`...)
	b = strconv.AppendInt(b, int64(r.Remaining), 10)
	b = append(b, `,"breaks":`...)
	b = strconv.AppendInt(b, int64(r.Breaks), 10)
	return append(b, `,"verdicts":[`...)
}

func (o observeReply) appendRows(b []byte, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		v := &o.res.Verdicts[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"status":`...)
		b = appendJSONString(b, v.Status.String())
		b = append(b, `,"break":`...)
		b = strconv.AppendBool(b, v.Break)
		b = append(b, `,"breakIndex":`...)
		b = strconv.AppendInt(b, int64(v.BreakOffset), 10)
		if v.Status == core.StatusOK {
			b = appendOptionalFloat(b, `,"process":`, v.Process)
			b = appendOptionalFloat(b, `,"magnitude":`, v.Mean)
		}
		b = append(b, `,"validMonitoring":`...)
		b = strconv.AppendInt(b, int64(v.ValidMon), 10)
		b = append(b, '}')
	}
	return b
}

func (o observeReply) appendTail(b []byte) []byte { return append(b, "]}\n"...) }

// appendOptionalFloat appends the key and v, or nothing for the values
// JSON cannot carry (an omitted *float64 field in ObserveResponse).
func appendOptionalFloat(b []byte, key string, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b
	}
	return appendJSONFloat(append(b, key...), v)
}

// appendJSONString appends s as a JSON string the way encoding/json
// writes it, HTML escaping included. Session IDs and status names are
// plain ASCII and take the copy; anything else goes through
// encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// handleSessions serves GET /v1/sessions (list, or one session via
// ?session=) and DELETE /v1/sessions?session= (remove the session and
// its snapshot).
func (s *Server) handleSessions(ctx context.Context, r *http.Request, _ *obs.Trace) (any, *apiError) {
	id := r.URL.Query().Get("session")
	switch r.Method {
	case http.MethodGet:
		if id == "" {
			return SessionsResponse{Sessions: s.nrtMgr.List()}, nil
		}
		info, err := s.nrtMgr.Get(id)
		if err != nil {
			return nil, nrtError(ctx, err)
		}
		return info, nil
	default: // DELETE, per the endpoint's method allow list
		if id == "" {
			return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "session query parameter is required")
		}
		if err := s.nrtMgr.Delete(ctx, id); err != nil {
			return nil, nrtError(ctx, err)
		}
		return map[string]string{"deleted": id}, nil
	}
}
