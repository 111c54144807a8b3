package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics and
// workloads this command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code reports %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)

	var setup float64
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v; setup_s must have the largest", m.Name, *m.Bound, setup)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
	}
}

// buildDaemon builds boundedgd from the enclosing checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "boundedgd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/boundedgd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build boundedgd: %v\n%s", err, out)
	}
	return bin
}

// TestEveryMetricEmitted runs short traced runs against a real daemon
// and checks that the result line carries every metric with its unit,
// and that each workload reaches the layers it is meant to stress.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := buildDaemon(t)
	for _, tc := range []struct {
		workload string
		check    func(t *testing.T, pl map[string]float64)
	}{
		{"hot_reads", func(t *testing.T, pl map[string]float64) {
			if pl["server.cache_hit_rate"] < 0.99 {
				t.Errorf("server.cache_hit_rate = %v, want >= 0.99", pl["server.cache_hit_rate"])
			}
			for _, m := range perLayer {
				layer, _, _ := strings.Cut(m.name, ".")
				if (layer == "graph" || layer == "access" || layer == "store" || layer == "wal" || layer == "shard") && pl[m.name] != 0 {
					t.Errorf("%s = %v on a read-only workload, want 0", m.name, pl[m.name])
				}
			}
		}},
		{"sharded_mixed", func(t *testing.T, pl map[string]float64) {
			for _, name := range []string{"graph.delta_decode_us", "access.apply_tx_us", "store.apply_us",
				"wal.syncs_per_delta", "shard.apply_us", "shard.txns_per_batch", "shard.query_eval_us"} {
				if pl[name] <= 0 {
					t.Errorf("%s = %v on sharded_mixed, want > 0", name, pl[name])
				}
			}
		}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := lookupWorkload(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(config{workload: w, seed: 1, seconds: 1, trace: true, daemon: bin, work: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("run not correct: %v", rep.Problems)
			}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := printReport(&out, rep, trace); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted uint64            `json:"attempted"`
					Failed    uint64            `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s emitted as %+v (present %v), want unit %q", trace, d.name, m, ok, d.unit)
					}
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
			}
			tc.check(t, rep.PerLayer)
		})
	}
}

// TestStubServerFailsRun drives a stub that answers 422, 500, a wrong
// answer and a body that is no answer at all: every one must count as a
// failed op, and the run must not be correct.
func TestStubServerFailsRun(t *testing.T) {
	dir := t.TempDir()
	ds, err := makeDataset(dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	replies := map[int]struct {
		code int
		body string
	}{
		0: {http.StatusUnprocessableEntity, `{"error":"core: pattern is not effectively bounded"}`},
		1: {http.StatusInternalServerError, `{"error":"boom"}`},
		2: {http.StatusOK, `{"sem":"subgraph","vars":["x"],"count":0,"complete":true,"cached":false,"elapsed_ms":0.1}`},
		3: {http.StatusOK, `{"oops":true}`},
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		for i, e := range ds.pool {
			if bytes.Equal(body, e.body) {
				w.WriteHeader(replies[i].code)
				io.WriteString(w, replies[i].body)
				return
			}
		}
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer stub.Close()

	w, err := lookupWorkload("hot_reads")
	if err != nil {
		t.Fatal(err)
	}
	w.poolSize = len(ds.pool)
	gens := []*opGen{newOpGen(w, ds.g, zipfRank(ds.live), 1, 0)}
	bodies := make([][]byte, len(ds.pool))
	for i, e := range ds.pool {
		bodies[i] = e.body
	}
	const subs = 2
	lr, err := runLoad(loadTarget{url: stub.URL, bodies: bodies, in: ds.in, repeats: true}, gens,
		100*time.Millisecond, 200*time.Millisecond, subs, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(config{workload: w, seed: 1, seconds: 1}, ds, dir)
	rep.addLoad(lr, make([]windowMark, subs+1))
	checked, problems, err := checkReadOnly(ds, lr)
	if err != nil {
		t.Fatal(err)
	}
	rep.addChecks(checked, problems)

	if ff := rep.Diagnostics["failed_frac"]; ff <= 0 {
		t.Errorf("failed_frac = %v, want > 0", ff)
	}
	if rep.Correct {
		t.Error("run against a failing stub reported correct")
	}
	st := rep.Status["read"]
	for _, class := range []string{"422", "5xx", "wrong_answer"} {
		if st[class] == 0 {
			t.Errorf("status tally has no %s reads: %v", class, st)
		}
	}
	if checked != 1 || len(problems) != 1 || !strings.Contains(problems[0], "entry 2") {
		t.Errorf("oracle check compared %d answers with problems %q; want the wrong answer of entry 2 flagged", checked, problems)
	}
}
