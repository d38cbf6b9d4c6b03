package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vabuf"
)

// Serve-path benchmarks on r3 WID inserts, one row per cache win:
//
//   - Cold turns the result and subtree caches off, so every iteration of
//     the identical request runs the full DP (the tree and model LRUs stay
//     warm).
//   - Warm answers the identical request from the result cache; Cold/Warm
//     is the memoization win.
//   - ECO sends inline-tree edits that each move one sink's RAT, with the
//     result cache off and the subtree cache on: every request parses a
//     new tree, shares the base net's model and recomputes only the edited
//     path. Cold/ECO is the incremental re-insert win.
func benchServe(b *testing.B, cfg Config, payload func(i int) []byte) {
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	post := func(body []byte) {
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post(payload(-1)) // warm the tree/model LRUs and any enabled cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := payload(i)
		b.StartTimer()
		post(body)
	}
}

// fixedPayload returns the same r3 WID request for every iteration.
func fixedPayload(b *testing.B) func(int) []byte {
	body, err := json.Marshal(InsertRequest{Bench: "r3", Algo: "wid"})
	if err != nil {
		b.Fatal(err)
	}
	return func(int) []byte { return body }
}

// ecoPayload returns r3 as inline text for i < 0 and, for iteration i,
// the same text with sink i (mod the sink count) given an earlier RAT —
// a distinct tree with the base net's site layout on every iteration.
func ecoPayload(b *testing.B) func(int) []byte {
	tree, err := vabuf.GenerateBenchmark("r3")
	if err != nil {
		b.Fatal(err)
	}
	var text strings.Builder
	if err := vabuf.WriteTree(&text, tree); err != nil {
		b.Fatal(err)
	}
	lines := strings.Split(text.String(), "\n")
	sinks := nodeLines(lines, "sink")
	return func(i int) []byte {
		req := InsertRequest{Tree: text.String(), Algo: "wid"}
		if i >= 0 {
			req.Tree = editField(b, lines, sinks[i%len(sinks)], fieldRAT,
				func(rat float64) float64 { return rat - float64(1+i/len(sinks)) })
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
}

func BenchmarkServeInsertCold(b *testing.B) {
	benchServe(b, Config{Workers: 2, ResultCacheSize: -1, SubtreeCacheMB: -1}, fixedPayload(b))
}

func BenchmarkServeInsertWarm(b *testing.B) {
	benchServe(b, Config{Workers: 2, ResultCacheSize: 128}, fixedPayload(b))
}

func BenchmarkServeInsertECO(b *testing.B) {
	benchServe(b, Config{Workers: 2, ResultCacheSize: -1}, ecoPayload(b))
}
