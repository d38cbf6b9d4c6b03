package main

// The layer ladder sends one r3 WID insert through four layers in turn —
// vabuf.Insert, the vabufd handler called in-process, vabufd over
// loopback HTTP, and vabufr in front of vabufd — once with every cache
// cold and then again warm, with the result cache off. Each hop's cost
// and the subtree cache's win are then subtractions inside one run.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"vabuf"
	"vabuf/internal/router"
	"vabuf/internal/server"
)

const (
	ladderBench = "r3"
	// ladderReps fresh instances per rung; each answers one cold request
	// and then ladderWarm warm ones.
	ladderReps = 3
	ladderWarm = 3
)

// rung is one layer of the ladder: start builds a fresh instance and
// returns a function that sends the request once.
type rung struct {
	name  string
	start func() (send func() error, stop func(), err error)
}

var ladderRungs = []rung{
	{"lib", startLibRung},
	{"handler", startHandlerRung},
	{"http", func() (func() error, func(), error) { return startHTTPRung(false) }},
	{"router", func() (func() error, func(), error) { return startHTTPRung(true) }},
}

var ladderBody = []byte(`{"bench":"` + ladderBench + `","algo":"wid"}`)

// runLadder returns the median cold and warm time of every rung.
func runLadder() (map[string]float64, error) {
	m := make(map[string]float64)
	for _, r := range ladderRungs {
		var cold, warm []float64
		for rep := 0; rep < ladderReps; rep++ {
			send, stop, err := r.start()
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", r.name, err)
			}
			for i := 0; i <= ladderWarm && err == nil; i++ {
				t0 := time.Now()
				err = send()
				if i == 0 {
					cold = append(cold, ms(time.Since(t0)))
				} else {
					warm = append(warm, ms(time.Since(t0)))
				}
			}
			stop()
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", r.name, err)
			}
		}
		m["ladder."+r.name+"_cold_ms"] = median(cold)
		m["ladder."+r.name+"_warm_ms"] = median(warm)
	}
	return m, nil
}

// startLibRung mirrors what vabufd does for the request through the
// library: the first call generates the tree and builds the model (its
// tree and model cache misses), later calls reuse both and the subtree
// cache.
func startLibRung() (func() error, func(), error) {
	var (
		tree  *vabuf.Tree
		model *vabuf.VariationModel
	)
	cache := vabuf.NewSubtreeCache(0)
	send := func() error {
		if tree == nil {
			t, err := vabuf.GenerateBenchmark(ladderBench)
			if err != nil {
				return err
			}
			cfg := vabuf.DefaultModelConfig(t)
			cfg.RandomFrac, cfg.InterDieFrac, cfg.SpatialFrac = 0.15, 0.15, 0.15
			cfg.Heterogeneous = true
			if model, err = vabuf.NewVariationModel(cfg); err != nil {
				return err
			}
			tree = t
		}
		_, err := vabuf.Insert(tree, vabuf.Options{Library: vabuf.DefaultLibrary(), Model: model, SubtreeCache: cache})
		return err
	}
	return send, func() {}, nil
}

func newLadderServer() *server.Server {
	return server.New(server.Config{Workers: 1, ResultCacheSize: -1})
}

func startHandlerRung() (func() error, func(), error) {
	s := newLadderServer()
	send := func() error {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(ladderBody)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	}
	return send, s.Close, nil
}

// startHTTPRung serves a fresh backend on loopback, behind a router when
// withRouter is set.
func startHTTPRung(withRouter bool) (func() error, func(), error) {
	s := newLadderServer()
	url, stopServer, err := serve(s.Handler())
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	stops := []func(){stopServer, s.Close, transport.CloseIdleConnections}
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if withRouter {
		rt, err := router.New(router.Config{Backends: []string{url},
			Client: &http.Client{Transport: transport}, Logf: func(string, ...any) {}})
		if err != nil {
			stop()
			return nil, nil, err
		}
		rurl, stopRouter, err := serve(rt.Handler())
		if err != nil {
			rt.Close()
			stop()
			return nil, nil, err
		}
		stops = append(stops, rt.Close, stopRouter)
		url = rurl
	}
	client := &http.Client{Transport: transport}
	send := func() error {
		resp, err := client.Post(url+"/v1/insert", "application/json", bytes.NewReader(ladderBody))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	return send, stop, nil
}
