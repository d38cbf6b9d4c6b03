package server

// Batch endpoints of vabufd: POST /v1/insert:batch and
// POST /v1/yield:batch. A batch carries up to Config.MaxBatchItems
// requests plus an optional shared-defaults block; the server resolves
// trees and models through the LRU caches once per distinct key, fans
// the items out over the worker pool under the sweep class, and answers
// one aggregate response with per-item results or per-item errors.
// Partial failure never fails the batch: a panicking item answers a
// per-item 500 while its siblings run to completion, the overall status
// is 200 with an "errors" count, and only a batch where nothing could
// be enqueued answers 429 (pool full) or 503 (draining/shedding).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// batchBounds validates the item count of a batch request.
func (s *Server) batchBounds(n int) error {
	if n == 0 {
		return fmt.Errorf(`"items" must contain at least one request`)
	}
	if n > s.cfg.MaxBatchItems {
		return fmt.Errorf("batch of %d items exceeds the %d-item cap", n, s.cfg.MaxBatchItems)
	}
	return nil
}

// submitResult is the admission outcome of one batch item.
type submitResult int

const (
	submitOK submitResult = iota
	submitOverloaded
	submitShed
)

// submitBatchItem queues fn under the sweep class. The job runs under
// recover(): a panic calls onPanic with the structured error instead of
// killing the worker, and wg.Done fires only after recovery, so the
// aggregate never reads a half-written item. While the shed gate is
// active, sweep items are refused before touching the queue. At dequeue
// the job checks ctx — the batch request's deadline-aware context — and
// an item whose deadline passed (or whose client vanished) while it
// queued calls onDoomed instead of running, so doomed batch work never
// burns a worker.
func (s *Server) submitBatchItem(ctx context.Context, endpoint string, wg *sync.WaitGroup,
	fn func(), onPanic func(error), onDoomed func(error)) submitResult {
	if s.shedding() {
		s.met.shed.Inc(endpoint)
		return submitShed
	}
	job := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				onPanic(s.met.panicRecovered(endpoint, r))
			}
		}()
		if err := ctx.Err(); err != nil {
			s.pool.classes[classSweep].expired.Inc()
			s.met.deadlineExpired.Inc(endpoint)
			onDoomed(err)
			return
		}
		if s.testHookJob != nil {
			s.testHookJob()
		}
		s.faultBeforeJob(endpoint)
		fn()
	}
	if !s.pool.trySubmit(job, classSweep) {
		return submitOverloaded
	}
	return submitOK
}

// doomedItemStatus maps a dropped queued item's context error to its
// per-item status: 504 when the deadline expired, 499 when the client
// went away.
func doomedItemStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return statusClientClosed
}

// batchStatus maps the enqueue outcome to the aggregate HTTP status: the
// batch fails as a whole only when nothing at all could be enqueued —
// 503 when the shed gate (or drain) refused the items, 429 when the
// pool was full.
func batchStatus(enqueued, overloaded, shed int) int {
	if enqueued == 0 && shed > 0 {
		return http.StatusServiceUnavailable
	}
	if enqueued == 0 && overloaded > 0 {
		return http.StatusTooManyRequests
	}
	return http.StatusOK
}

func (s *Server) insertBatch(r *http.Request) (int, any) {
	if s.isDraining() {
		return http.StatusServiceUnavailable, errBody(errDraining)
	}
	var breq BatchInsertRequest
	if st, err := decodeJSON(r, s.cfg.MaxRequestBytes, &breq); err != nil {
		return st, errBody(err)
	}
	if err := s.batchBounds(len(breq.Items)); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	out := BatchInsertResult{Items: make([]BatchItemResult, len(breq.Items))}
	var wg sync.WaitGroup
	enqueued, overloaded, shed := 0, 0, 0
	// Fingerprint-level dedupe: identical items run once, duplicates
	// adopt the leader's result after the pool drains; items whose
	// result is already cached never reach the queue at all.
	leaders := make(map[string]int)  // fingerprint -> leader item index
	dupOf := make(map[int]int)       // duplicate item index -> leader index
	leaderFP := make(map[int]string) // enqueued leader index -> fingerprint
	for i := range breq.Items {
		item := &out.Items[i]
		item.Index = i
		req := breq.Items[i]
		req.ApplyDefaults(breq.Defaults)
		if err := req.Normalize(); err != nil {
			item.Status, item.Error = http.StatusBadRequest, err.Error()
			continue
		}
		fp := req.Fingerprint(s.cfg.Epoch)
		if v, ok := s.resultGet(fp); ok {
			item.Status, item.Result = http.StatusOK, v.(*InsertResult)
			continue
		}
		if li, ok := leaders[fp]; ok {
			dupOf[i] = li
			s.met.coalesced.Inc("/v1/insert:batch")
			continue
		}
		leaders[fp] = i
		// prepare runs on the handler goroutine: the LRU caches build
		// each distinct tree/model once, and identical later items hit.
		p, err := s.prepare(&req)
		if err != nil {
			item.Status, item.Error = http.StatusBadRequest, err.Error()
			continue
		}
		leaderFP[i] = fp
		wg.Add(1)
		res := s.submitBatchItem(r.Context(), "/v1/insert:batch", &wg, func() {
			res, st, err := s.runPrepared(r.Context(), &req, p)
			if err != nil {
				item.Status, item.Error = st, err.Error()
				return
			}
			item.Status, item.Result = http.StatusOK, res
		}, func(perr error) {
			item.Status, item.Error = http.StatusInternalServerError, perr.Error()
		}, func(derr error) {
			item.Status, item.Error = doomedItemStatus(derr), derr.Error()
		})
		if res != submitOK {
			wg.Done()
			switch res {
			case submitOverloaded:
				overloaded++
				item.Status, item.Error = http.StatusTooManyRequests, errOverloaded.Error()
			case submitShed:
				shed++
				item.Status, item.Error = http.StatusServiceUnavailable, errShedding.Error()
			}
			continue
		}
		enqueued++
	}
	// Every job owns its distinct Items element, so waiting for the pool
	// is the only synchronization the aggregate needs. Abandoned clients
	// cancel the runs through r.Context(); the jobs still finish fast.
	wg.Wait()
	for i, fp := range leaderFP {
		if out.Items[i].Status == http.StatusOK {
			s.resultStore(fp, out.Items[i].Result)
		}
	}
	for i, li := range dupOf {
		out.Items[i].Status = out.Items[li].Status
		out.Items[i].Result = out.Items[li].Result
		out.Items[i].Error = out.Items[li].Error
	}
	for i := range out.Items {
		if out.Items[i].Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Errors++
		}
	}
	return batchStatus(enqueued, overloaded, shed), out
}

func (s *Server) yieldBatch(r *http.Request) (int, any) {
	if s.isDraining() {
		return http.StatusServiceUnavailable, errBody(errDraining)
	}
	var breq BatchYieldRequest
	if st, err := decodeJSON(r, s.cfg.MaxRequestBytes, &breq); err != nil {
		return st, errBody(err)
	}
	if err := s.batchBounds(len(breq.Items)); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	out := BatchYieldResult{Items: make([]BatchYieldItemResult, len(breq.Items))}
	var wg sync.WaitGroup
	enqueued, overloaded, shed := 0, 0, 0
	leaders := make(map[string]int)  // fingerprint -> leader item index
	dupOf := make(map[int]int)       // duplicate item index -> leader index
	leaderFP := make(map[int]string) // enqueued leader index -> fingerprint
	for i := range breq.Items {
		item := &out.Items[i]
		item.Index = i
		req := breq.Items[i]
		req.ApplyDefaults(breq.Defaults)
		if err := req.Normalize(); err != nil {
			item.Status, item.Error = http.StatusBadRequest, err.Error()
			continue
		}
		fp := req.Fingerprint(s.cfg.Epoch)
		if v, ok := s.resultGet(fp); ok {
			item.Status, item.Result = http.StatusOK, v.(*YieldResult)
			continue
		}
		if li, ok := leaders[fp]; ok {
			dupOf[i] = li
			s.met.coalesced.Inc("/v1/yield:batch")
			continue
		}
		leaders[fp] = i
		p, err := s.prepare(&req.InsertRequest)
		if err != nil {
			item.Status, item.Error = http.StatusBadRequest, err.Error()
			continue
		}
		leaderFP[i] = fp
		wg.Add(1)
		res := s.submitBatchItem(r.Context(), "/v1/yield:batch", &wg, func() {
			res, st, err := s.runPreparedYield(r.Context(), &req, p, nil)
			if err != nil {
				item.Status, item.Error = st, err.Error()
				return
			}
			item.Status, item.Result = http.StatusOK, res
		}, func(perr error) {
			item.Status, item.Error = http.StatusInternalServerError, perr.Error()
		}, func(derr error) {
			item.Status, item.Error = doomedItemStatus(derr), derr.Error()
		})
		if res != submitOK {
			wg.Done()
			switch res {
			case submitOverloaded:
				overloaded++
				item.Status, item.Error = http.StatusTooManyRequests, errOverloaded.Error()
			case submitShed:
				shed++
				item.Status, item.Error = http.StatusServiceUnavailable, errShedding.Error()
			}
			continue
		}
		enqueued++
	}
	wg.Wait()
	for i, fp := range leaderFP {
		if out.Items[i].Status == http.StatusOK {
			s.resultStore(fp, out.Items[i].Result)
		}
	}
	for i, li := range dupOf {
		out.Items[i].Status = out.Items[li].Status
		out.Items[i].Result = out.Items[li].Result
		out.Items[i].Error = out.Items[li].Error
	}
	for i := range out.Items {
		if out.Items[i].Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Errors++
		}
	}
	return batchStatus(enqueued, overloaded, shed), out
}
