package server

// POST /v1/yield:stream — the chunked-JSON face of the adaptive
// Monte-Carlo sampler. The response is newline-delimited JSON: one
// "progress" event per sampled chunk (running mean/sigma,
// quantile estimate, CI half-width), then a final "result" event
// carrying the same YieldResult the plain /v1/yield endpoint would
// return, or an "error" event when the run fails after streaming began.
// Failures before the first byte (bad request, overload, drain) answer
// a plain JSON error with the usual status instead.
//
// The endpoint bypasses the result cache and the coalescing registry on
// purpose: a stream's value is watching the run converge, and two
// clients joining one flight would see each other's progress cadence.
// Client disconnects propagate into the sampler through OnEstimate, so
// an abandoned stream stops burning its worker at the next chunk
// boundary.

import (
	"encoding/json"
	"errors"
	"net/http"

	"vabuf"
)

// ProgressDTO is one adaptive Monte-Carlo progress event: the running
// estimate after an integral number of sampling chunks.
type ProgressDTO struct {
	Samples       int     `json:"samples"`
	MeanPS        float64 `json:"mean_ps"`
	SigmaPS       float64 `json:"sigma_ps"`
	QuantileRAT   float64 `json:"quantile_rat_ps"`
	CIHalfWidthPS float64 `json:"ci_half_width_ps"`
	Converged     bool    `json:"converged"`
}

// StreamEvent is one line of the /v1/yield:stream response.
type StreamEvent struct {
	// Type is "progress", "result", or "error".
	Type     string       `json:"type"`
	Progress *ProgressDTO `json:"progress,omitempty"`
	Result   *YieldResult `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
	// Status carries the HTTP status the failure would have had on the
	// plain endpoint (error events only — the stream itself is already
	// committed to 200 by then).
	Status int `json:"status,omitempty"`
}

func (s *Server) yieldStream(w http.ResponseWriter, r *http.Request) {
	// The stream bypasses instrument, so it enforces the propagated
	// deadline itself: spent budgets answer 504 before any work, live
	// ones bound the run through the request context.
	const endpoint = "/v1/yield:stream"
	dr, cancel, doomed := withRequestDeadline(r)
	if doomed {
		s.met.deadlineRejected.Inc(endpoint)
		s.writeJSON(w, endpoint, http.StatusGatewayTimeout, errBody(errDeadlineSpent))
		return
	}
	defer cancel()
	r = dr

	status, errResult, run := s.prepareYieldStream(r)
	if run == nil {
		s.writeJSON(w, endpoint, status, errResult)
		return
	}

	// events is drained by this handler goroutine while the job runs on
	// a pool worker. Progress sends are non-blocking (a slow client skips
	// intermediate events instead of stalling the worker); the final
	// result/error event is sent blocking after the channel's progress
	// backlog, so it is never lost. The channel is never closed: a job
	// abandoned by a canceled request may still be sending progress, so
	// the loop ends at the terminal event instead, draining without
	// writing once the client is gone so that send never blocks.
	events := make(chan StreamEvent, 16)
	outcome := make(chan streamOutcome, 1)
	go func() { outcome <- run(events) }()

	s.identityHeaders(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	gone := false
	for ev := range events {
		if !gone {
			// A write error means the client is gone; the job stops via
			// r.Context().
			gone = enc.Encode(ev) != nil
			if !gone && flusher != nil {
				flusher.Flush()
			}
		}
		if ev.Type != "progress" {
			break
		}
	}
	out := <-outcome
	s.met.requests.Record(endpoint, out.status)
}

// streamOutcome is the terminal state of one streamed run, recorded in
// the request metrics (the wire already carried it as an event).
type streamOutcome struct {
	status int
}

// prepareYieldStream validates and admits a streaming request. On any
// pre-stream failure it returns (status, body, nil); otherwise the
// returned run executes the job, feeds events, and reports the terminal
// status.
func (s *Server) prepareYieldStream(r *http.Request) (int, any, func(chan<- StreamEvent) streamOutcome) {
	parsed, status, err := s.parseBody(r, "yield")
	if err != nil {
		return status, errBody(err), nil
	}
	req := parsed.(*YieldRequest)
	if req.MonteCarlo <= 0 || req.Algo == "nom" {
		return http.StatusBadRequest, errBody(errStreamNeedsMC), nil
	}
	p, err := s.prepare(&req.InsertRequest)
	if err != nil {
		return http.StatusBadRequest, errBody(err), nil
	}
	run := func(events chan<- StreamEvent) streamOutcome {
		var out *YieldResult
		onEstimate := func(est vabuf.MCEstimate) bool {
			ev := StreamEvent{Type: "progress", Progress: &ProgressDTO{
				Samples:       est.Samples,
				MeanPS:        est.Mean,
				SigmaPS:       est.Sigma,
				QuantileRAT:   est.Quantile,
				CIHalfWidthPS: est.HalfWidth,
				Converged:     est.Converged,
			}}
			select {
			case events <- ev:
			default: // slow client: drop the intermediate event
			}
			return r.Context().Err() == nil
		}
		status, err := s.execute(r.Context(), "/v1/yield:stream", classFor(req.Priority), func() (st int, err error) {
			out, st, err = s.runPreparedYield(r.Context(), req, p, onEstimate)
			return st, err
		})
		if err != nil {
			events <- StreamEvent{Type: "error", Error: err.Error(), Status: status}
			return streamOutcome{status: status}
		}
		events <- StreamEvent{Type: "result", Result: out}
		return streamOutcome{status: http.StatusOK}
	}
	return 0, nil, run
}

// errStreamNeedsMC rejects streaming requests that would never emit a
// progress event.
var errStreamNeedsMC = errors.New(
	`/v1/yield:stream requires "monte_carlo" > 0 and a variation-aware algo (d2d or wid)`)
