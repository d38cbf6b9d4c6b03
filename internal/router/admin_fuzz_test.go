package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// noNetwork is a proxy and probe transport that answers every request
// with an error, so backends named by fuzzed bodies are never dialed.
type noNetwork struct{}

func (noNetwork) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("no network in this test")
}

// getAdminBackends answers GET /admin/backends on h and decodes it.
func getAdminBackends(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/backends", nil))
	var res adminBackendsResult
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
		t.Fatalf("GET /admin/backends: %d %s", rec.Code, rec.Body)
	}
	return res.Backends
}

// FuzzAdminBackends feeds arbitrary bodies to vabufr's POST
// /admin/backends, a fresh router per input. The endpoint must answer
// only 200, 400 or 413 and never panic. After a refusal a GET returns the
// old membership; after a 200 it returns the list the POST answered, with
// no backend twice. The body limit of 1 KiB caps one input at a few
// hundred added backends, and so at that many probe loops, each probing
// once through a transport that never dials and then sleeping an hour.
func FuzzAdminBackends(f *testing.F) {
	f.Add([]byte(`{"backends":["http://b0","http://b2"]}`))
	f.Add([]byte(`{"backends":["http://b0","http://b1","http://b2"]}`))
	f.Add([]byte(`{"backends":["http://b1/","http://b0"]}`))
	f.Add([]byte(`{"backends":["http://b0"," http://b0/ "]}`))
	f.Add([]byte(`{"backends":["  ",""]}`))
	f.Add([]byte(`{"backends":[]}`))
	f.Add([]byte(`{"backends":null}`))
	f.Add([]byte(`{"backends":["x"],"bogus":1}`))
	f.Add([]byte(`{"backends":["a","b"]}{}`))
	f.Add([]byte(`{"backends":[1]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"backends":["` + string(bytes.Repeat([]byte("a"), 2048)) + `"]}`))

	old := []string{"http://b0", "http://b1"}
	f.Fuzz(func(t *testing.T, body []byte) {
		rt, err := New(Config{
			Backends:        old,
			VNodes:          4,
			ProbeInterval:   time.Hour,
			MaxRequestBytes: 1 << 10,
			EnableAdmin:     true,
			Client:          &http.Client{Transport: noNetwork{}},
			Logf:            func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		h := rt.Handler()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/backends", bytes.NewReader(body)))
		got := getAdminBackends(t, h)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if !slices.Equal(got, old) {
				t.Fatalf("refused with %d, membership changed to %q: %s", rec.Code, got, rec.Body)
			}
		case http.StatusOK:
			var res adminBackendsResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an undecodable body: %v: %s", err, rec.Body)
			}
			if !slices.Equal(got, res.Backends) {
				t.Fatalf("POST answered %q, GET returns %q", res.Backends, got)
			}
			seen := memberSet(got)
			if len(seen) != len(got) {
				t.Fatalf("membership %q names a backend twice", got)
			}
		default:
			t.Fatalf("answered %d: %s", rec.Code, rec.Body)
		}
	})
}
