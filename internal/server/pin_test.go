package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// pinnedFingerprints are literal result-cache and routing keys. A change
// to any of them turns every snapshot and fleet cache cold and moves
// partitions during a rolling upgrade, so a deliberate change must bump
// fingerprintVersion (or, for the yield keys alone, rename mcStream) and
// update this table in the same commit.
var pinnedFingerprints = []struct {
	kind, body string
	epoch      string
	want       string
}{
	{"insert", `{"bench":"r1","algo":"wid"}`, "",
		"ins:69410ca7bfcf14a732cb7d206e7d19ba119f47b74885b16e640a98a10509b0a9"},
	{"insert", `{"bench":"r1","algo":"wid"}`, "lib-2026a",
		"ins:2e3c7b4ffc2288547952a94690c4332718da68a80a70b72f7bf3f0a6a10e5ace"},
	{"insert", `{"bench":"p1","algo":"nom","rule":"4P","pbar":0.7,"budget":0.1,"quantile":0.1,"max_candidates":9,"wire_sizing":true,"inverters":true,"include_assignment":true,"heterogeneous":false,"timeout_ms":5000,"priority":"sweep","parallelism":3,"hull":"off"}`, "",
		"ins:4da35d0e9e82cbf3c6b4874e014016676c33befabbb959effe0e4da7d0a2e2fa"},
	{"insert", `{"tree":"node 0 source 0 0\n","algo":"d2d"}`, "lib-2026a",
		"ins:2549a43eb0341fc8aa02d78f050c10f06b3a1e1996f25e136779791f42e3a714"},
	{"yield", `{"bench":"p1","algo":"wid"}`, "",
		"yld:c76f4842d7694619af7d94216f6b342363390431aae8b24cb7aa1b063be11cc4"},
	{"yield", `{"bench":"p1","algo":"wid","monte_carlo":128}`, "",
		"yld:bef2c4847528df6a3bba443cf76f27a387b728a6c1ad2bcb92876ecca6e8f4b9"},
	{"yield", `{"bench":"p1","algo":"wid","monte_carlo":128}`, "lib-2026a",
		"yld:64a56d4c68d218c98da322ad7b0970f12c884ceb7c6401035d79bf6615f7a099"},
	{"yield", `{"bench":"r2","algo":"d2d","monte_carlo":256,"parallelism":4,"seed":9}`, "",
		"yld:98c85ac79a94696ecd9e29ecce0ecf044f623c92e2c3bd5d326c02db90c9c8ca"},
	{"yield", `{"bench":"r2","algo":"wid","monte_carlo":5000,"mc_tol":0.02,"parallelism":8,"quantile":0.1}`, "lib-2026a",
		"yld:daaf387e111b86a35d35ff5c2c9f34a3dac701237de7719bc7a398ec3ed6a0f5"},
}

// TestFingerprintPins pins the literal fingerprint hex of a fixed set of
// insert and yield requests, at a non-empty cache epoch and at the empty
// epoch vabufr routes by.
func TestFingerprintPins(t *testing.T) {
	for i, tc := range pinnedFingerprints {
		var got string
		switch tc.kind {
		case "insert":
			var req InsertRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			if err := req.Normalize(); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			got = req.Fingerprint(tc.epoch)
		case "yield":
			var req YieldRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			if err := req.Normalize(); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			got = req.Fingerprint(tc.epoch)
		}
		if got != tc.want {
			t.Errorf("case %d (%s %s, epoch %q): fingerprint\n got %s\nwant %s",
				i, tc.kind, tc.body, tc.epoch, got, tc.want)
		}
	}
}

// jsonShape renders a JSON document's key structure: objects keep their
// keys in wire order, leaves become their JSON type, a run of equal
// array elements collapses to "shape*n", and the integer bookkeeping
// fields of a batch response (index, status, succeeded, errors) keep
// their values. No other value appears, so elapsed_ms is masked.
func jsonShape(t *testing.T, raw []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var walk func(key string) (string, error)
	walk = func(key string) (string, error) {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch v := tok.(type) {
		case json.Delim:
			var parts []string
			var runs []int
			for dec.More() {
				k := ""
				if v == '{' {
					kt, err := dec.Token()
					if err != nil {
						return "", err
					}
					k = kt.(string)
				}
				sub, err := walk(k)
				if err != nil {
					return "", err
				}
				if v == '{' {
					sub = k + ":" + sub
				} else if n := len(parts); n > 0 && parts[n-1] == sub {
					runs[n-1]++
					continue
				}
				parts, runs = append(parts, sub), append(runs, 1)
			}
			if _, err := dec.Token(); err != nil {
				return "", err
			}
			for i, n := range runs {
				if n > 1 {
					parts[i] = fmt.Sprintf("%s*%d", parts[i], n)
				}
			}
			if v == '{' {
				return "{" + strings.Join(parts, ",") + "}", nil
			}
			return "[" + strings.Join(parts, ",") + "]", nil
		case json.Number:
			switch key {
			case "index", "status", "succeeded", "errors":
				return v.String(), nil
			}
			return "num", nil
		case string:
			return "str", nil
		case bool:
			return "bool", nil
		}
		return "null", nil
	}
	shape, err := walk("")
	if err != nil {
		t.Fatalf("shape of %s: %v", raw, err)
	}
	return shape
}

// pinnedInsertShape is the key structure of an InsertResult's fixed
// fields; the closing brace is left to the caller, after the optional
// fields the case adds.
const pinnedInsertShape = "{bench:str,algo:str,rule:str,pbar:num,quantile:num,sinks:num,buffer_positions:num," +
	"wire_length_um:num,mean_ps:num,sigma_ps:num,objective_ps:num,num_buffers:num,root_candidates:num," +
	"stats:{generated:num,pruned:num,peak_list:num,merges:num,nodes:num,workers:num," +
	"arena_candidates:num,arena_terms:num,arena_bytes:num,arena_used_bytes:num," +
	"subtree_hits:num,subtree_misses:num,subtree_stores:num,hull_sites:num,hull_skipped:num," +
	"hull_peak:num,elapsed_ms:num},elapsed_ms:num"

// TestBatchResponseShapePins pins the JSON key structure of one
// /v1/insert:batch and one /v1/yield:batch response.
func TestBatchResponseShapePins(t *testing.T) {
	cases := []struct {
		path, body, want string
	}{
		{"/v1/insert:batch",
			`{"defaults":{"algo":"nom"},"items":[{"bench":"p1"},{"bench":"p1","algo":"bogus"},{"bench":"p1","include_assignment":true,"wire_sizing":true}]}`,
			"{items:[{index:0,status:200,result:" + pinnedInsertShape + "}}," +
				"{index:1,status:400,error:str}," +
				"{index:2,status:200,result:" + pinnedInsertShape + ",tree_cache_hit:bool,wire_usage:{w1:num,w2:num,w4:num}," +
				"assignment:[{node:num,kind:str,x:num,y:num,buffer:str}*192]}}]," +
				"succeeded:2,errors:1}"},
		{"/v1/yield:batch",
			`{"items":[{"bench":"p1","algo":"wid","monte_carlo":64},{"bench":"p1","algo":"wid","monte_carlo":-1}]}`,
			"{items:[{index:0,status:200,result:{insert:" + pinnedInsertShape + "}," +
				"mean_ps:num,sigma_ps:num,yield_rat_ps:num," +
				"monte_carlo:{samples:num,mean_ps:num,sigma_ps:num,quantile_rat_ps:num}}}," +
				"{index:1,status:400,error:str}],succeeded:1,errors:1}"},
	}
	for _, tc := range cases {
		_, ts := newTestServer(t, Config{Workers: 1})
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, buf.Bytes())
		}
		if got := jsonShape(t, buf.Bytes()); got != tc.want {
			t.Errorf("%s response shape\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
}
