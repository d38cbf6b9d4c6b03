package vabuf_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vabuf"
	"vabuf/internal/server"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// buildCmd compiles one of the repo's commands into a temp dir.
func buildCmd(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestBufinsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries")
	}
	bin := buildCmd(t, "./cmd/bufins")
	out, _, err := runCmd(t, bin, "-bench", "p1", "-algo", "wid", "-criticality", "2")
	if err != nil {
		t.Fatalf("bufins: %v\n%s", err, out)
	}
	for _, want := range []string{"269 sinks", "RAT:", "buffers:", "most critical sinks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic NOM run.
	out2, _, err := runCmd(t, bin, "-bench", "p1", "-algo", "nom")
	if err != nil {
		t.Fatalf("bufins nom: %v", err)
	}
	if !strings.Contains(out2, "sigma 0.00") {
		t.Errorf("NOM run shows nonzero sigma:\n%s", out2)
	}
	// Error paths exit non-zero.
	if _, _, err := runCmd(t, bin, "-bench", "nope"); err == nil {
		t.Error("unknown bench accepted")
	}
	if _, _, err := runCmd(t, bin); err == nil {
		t.Error("missing inputs accepted")
	}
	if _, _, err := runCmd(t, bin, "-bench", "p1", "-algo", "martian"); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, stderr, err := runCmd(t, bin, "-bench", "p1", "-pbar", "1.5"); err == nil {
		t.Error("out-of-range -pbar accepted")
	} else if !strings.Contains(stderr, "(0, 1)") {
		t.Errorf("-pbar error message unclear: %q", stderr)
	}
	if _, _, err := runCmd(t, bin, "-bench", "p1", "-quantile", "0"); err == nil {
		t.Error("out-of-range -quantile accepted")
	}
}

func TestBufinsJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries")
	}
	bin := buildCmd(t, "./cmd/bufins")
	out, _, err := runCmd(t, bin, "-bench", "p1", "-algo", "nom", "-json", "-print-assignment")
	if err != nil {
		t.Fatalf("bufins -json: %v\n%s", err, out)
	}
	var res struct {
		Bench      string  `json:"bench"`
		Algo       string  `json:"algo"`
		Sinks      int     `json:"sinks"`
		MeanPS     float64 `json:"mean_ps"`
		SigmaPS    float64 `json:"sigma_ps"`
		NumBuffers int     `json:"num_buffers"`
		Assignment []struct {
			Node   int    `json:"node"`
			Buffer string `json:"buffer"`
		} `json:"assignment"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not the insert DTO: %v\n%s", err, out)
	}
	if res.Bench != "p1" || res.Algo != "nom" || res.Sinks != 269 {
		t.Errorf("DTO fields wrong: %+v", res)
	}
	if res.NumBuffers == 0 || len(res.Assignment) != res.NumBuffers {
		t.Errorf("assignment has %d entries, num_buffers %d", len(res.Assignment), res.NumBuffers)
	}
	if res.SigmaPS != 0 {
		t.Errorf("nom run has sigma %g", res.SigmaPS)
	}
}

// TestBufinsMatchesDaemon runs bufins locally and POSTs the same fields
// to /v1/insert on a daemon whose result and subtree caches are off, so
// both answers come from a fresh DP: the DTOs must agree field for field
// but for the wall clocks and the cache-hit flags.
func TestBufinsMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries")
	}
	bin := buildCmd(t, "./cmd/bufins")
	// netFile writes a small generated net and returns its path and text.
	netFile := func(sinks int, seed int64) (string, string) {
		net, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "cli", Sinks: sinks, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := vabuf.WriteTree(&text, net); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "net.tree")
		if err := writeFile(path, text.String()); err != nil {
			t.Fatal(err)
		}
		return path, text.String()
	}
	// 4P keeps every candidate whose bands overlap, so its net stays at
	// three sinks: four already lists ~60k candidates under WID.
	file4p, text4p := netFile(3, 7)
	fileInv, textInv := netFile(10, 5)
	srv := server.New(server.Config{Workers: 1, ResultCacheSize: -1, SubtreeCacheMB: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for _, tc := range []struct {
		name string
		args []string
		req  server.InsertRequest
	}{
		{"nom p1", []string{"-bench", "p1", "-algo", "nom"},
			server.InsertRequest{Bench: "p1", Algo: "nom"}},
		{"wid pbar 0.9", []string{"-bench", "p1", "-algo", "wid", "-pbar", "0.9"},
			server.InsertRequest{Bench: "p1", Algo: "wid", Pbar: 0.9}},
		{"4p tree file", []string{"-tree", file4p, "-algo", "wid", "-rule", "4p"},
			server.InsertRequest{Tree: text4p, Algo: "wid", Rule: "4p"}},
		{"inverters wire sizing", []string{"-tree", fileInv, "-algo", "d2d", "-inverters", "-wire-sizing"},
			server.InsertRequest{Tree: textInv, Algo: "d2d", Inverters: true, WireSizing: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args, "-parallel", "1", "-json", "-print-assignment")
			out, stderr, err := runCmd(t, bin, args...)
			if err != nil {
				t.Fatalf("bufins %v: %v\n%s", args, err, stderr)
			}
			req := tc.req
			req.Parallelism, req.IncludeAssignment = 1, true
			payload, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/insert: %v %s: %s", err, resp.Status, body)
			}
			local, served := decodeRun(t, []byte(out)), decodeRun(t, body)
			if !reflect.DeepEqual(local, served) {
				t.Errorf("bufins and vabufd disagree:\nbufins %+v\nvabufd %+v", local, served)
			}
			if len(local.Assignment) != local.NumBuffers {
				t.Errorf("assignment has %d entries, num_buffers %d", len(local.Assignment), local.NumBuffers)
			}
		})
	}
}

// decodeRun parses an insert DTO and clears what differs between two
// runs of one request: the wall clocks and the cache-hit flags.
func decodeRun(t *testing.T, raw []byte) server.InsertResult {
	t.Helper()
	var res server.InsertResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("not the insert DTO: %v\n%s", err, raw)
	}
	res.ElapsedMS, res.Stats.ElapsedMS = 0, 0
	res.TreeCacheHit, res.ModelCacheHit = false, false
	return res
}

func TestBenchgenCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries")
	}
	gen := buildCmd(t, "./cmd/benchgen")
	ins := buildCmd(t, "./cmd/bufins")
	out, _, err := runCmd(t, gen, "-sinks", "30", "-seed", "3")
	if err != nil {
		t.Fatalf("benchgen: %v", err)
	}
	if !strings.HasPrefix(out, "tree v1") {
		t.Fatalf("unexpected header: %.40q", out)
	}
	// Feed the generated tree back into bufins via a file.
	f := filepath.Join(t.TempDir(), "net.tree")
	if err := writeFile(f, out); err != nil {
		t.Fatal(err)
	}
	out2, _, err := runCmd(t, ins, "-tree", f, "-algo", "nom")
	if err != nil {
		t.Fatalf("bufins on generated tree: %v\n%s", err, out2)
	}
	if !strings.Contains(out2, "30 sinks") {
		t.Errorf("round trip lost sinks:\n%s", out2)
	}
	// List mode.
	out3, _, err := runCmd(t, gen, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "r5") {
		t.Errorf("list missing presets:\n%s", out3)
	}
	if _, _, err := runCmd(t, gen); err == nil {
		t.Error("benchgen with no mode accepted")
	}
}

func TestExperimentsCLIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries")
	}
	bin := buildCmd(t, "./cmd/experiments")
	out, _, err := runCmd(t, bin, "-run", "table1")
	if err != nil {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	if !strings.Contains(out, "6201") {
		t.Errorf("table1 output wrong:\n%s", out)
	}
	out2, _, err := runCmd(t, bin, "-run", "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "P(T1 > T2)") {
		t.Errorf("fig2 output wrong:\n%s", out2)
	}
	if _, _, err := runCmd(t, bin, "-run", "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
