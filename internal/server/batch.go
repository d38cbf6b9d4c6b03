package server

// Batch endpoints of vabufd: POST /v1/insert:batch and
// POST /v1/yield:batch. A batch carries up to Config.MaxBatchItems
// requests plus an optional shared-defaults block; the server resolves
// trees and models through the LRU caches once per distinct key, fans
// the items out over the worker pool under the sweep class, and answers
// one aggregate response with per-item results or per-item errors.
// Every item is parsed on its own, so a malformed item answers a
// per-item 400; a malformed envelope or defaults block, an empty batch,
// or one over the cap answers 400 as a whole. Partial failure never
// fails the batch: a panicking item answers a
// per-item 500 while its siblings run to completion, the overall status
// is 200 with an "errors" count, and only a batch where nothing could
// be enqueued answers 429 (pool full) or 503 (draining/shedding).

import (
	"fmt"
	"net/http"
	"sync"
)

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

// batch returns the handler of /v1/insert:batch or /v1/yield:batch.
// Items run as sweep-class guarded jobs; while the shed gate is active
// they are refused before touching the queue.
func (s *Server) batch(kind, endpoint string) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		if s.isDraining() {
			return http.StatusServiceUnavailable, errBody(errDraining)
		}
		body, status, err := ReadBody(nil, r, s.cfg.MaxRequestBytes)
		if err != nil {
			return status, errBody(err)
		}
		items, defaults, err := ParseBatch(kind, body)
		if err != nil {
			return http.StatusBadRequest, errBody(err)
		}
		if n := len(items); n > s.cfg.MaxBatchItems {
			return http.StatusBadRequest, errBody(fmt.Errorf(
				"batch of %d items exceeds the %d-item cap", n, s.cfg.MaxBatchItems))
		}
		out := BatchResult[any]{Items: make([]BatchItem[any], len(items))}
		var wg sync.WaitGroup
		enqueued, overloaded, shed := 0, 0, 0
		// Fingerprint-level dedupe: identical items run once, duplicates
		// adopt the leader's result after the pool drains; items whose
		// result is already cached never reach the queue at all.
		leaders := make(map[string]int)  // fingerprint -> leader item index
		dupOf := make(map[int]int)       // duplicate item index -> leader index
		leaderFP := make(map[int]string) // enqueued leader index -> fingerprint
		for i, raw := range items {
			item := &out.Items[i]
			item.Index = i
			req, err := ParseRequest(kind, defaults, raw)
			if err != nil {
				item.Status, item.Error = http.StatusBadRequest, err.Error()
				continue
			}
			fp := req.Fingerprint(s.cfg.Epoch)
			if v, ok := s.resultGet(fp); ok {
				item.Status, item.Result = http.StatusOK, v
				continue
			}
			if li, ok := leaders[fp]; ok {
				dupOf[i] = li
				s.met.coalesced.Inc(endpoint)
				continue
			}
			leaders[fp] = i
			// prepare runs on the handler goroutine: the LRU caches build
			// each distinct tree/model once, and identical later items hit.
			p, err := s.prepare(req.insert())
			if err != nil {
				item.Status, item.Error = http.StatusBadRequest, err.Error()
				continue
			}
			leaderFP[i] = fp
			if s.shedding() {
				s.met.shed.Inc(endpoint)
				shed++
				item.Status, item.Error = http.StatusServiceUnavailable, errShedding.Error()
				continue
			}
			// The job writes only its own item, and wg.Done fires only
			// after recovery, so the aggregate never reads a half-written
			// item.
			wg.Add(1)
			job := s.guardedJob(r.Context(), endpoint, classSweep, func() (st int, err error) {
				item.Result, st, err = req.run(s, r.Context(), p)
				return st, err
			}, func(st int, err error) {
				item.Status = http.StatusOK
				if err != nil {
					item.Status, item.Error = st, err.Error()
				}
				wg.Done()
			})
			if !s.pool.trySubmit(job, classSweep) {
				wg.Done()
				overloaded++
				item.Status, item.Error = http.StatusTooManyRequests, errOverloaded.Error()
				continue
			}
			enqueued++
		}
		// Waiting for the pool is the only synchronization the aggregate
		// needs. Abandoned clients cancel the runs through r.Context();
		// the jobs still finish fast.
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
		out.Tally()
		return batchStatus(enqueued, overloaded, shed), out
	}
}
