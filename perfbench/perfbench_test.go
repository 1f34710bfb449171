package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/gbbs"
)

// tinyConfig shrinks a workload so a whole run takes about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	c, ok := configFor(workload, 7, 0.6)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	c.trace = trace
	c.setupReps, c.minPasses, c.microReps = 1, 1, 1
	if c.input.kind == "torus" {
		c.input.side = 8
	} else {
		c.input.scale = 9
	}
	c.warmup = 200 * time.Millisecond
	c.readRate, c.updateRate = 60, 60
	c.cacheBytes, c.resultBytes = 64<<10, 32<<10
	c.catScales, c.catSide, c.catGrid, c.catVariants, c.hotSet = []int{7, 8}, 5, 8, 2, 2
	c.storeScale, c.storeSide, c.batchEdges, c.writeEvery = 8, 5, 20, 3
	c.freshScale = 7
	c.probeSeconds = 0.4
	return c
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []declared) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code declares %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code declares %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadList, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, workloadList)
	}
}

// Every workload runs end to end, untraced and traced, and emits exactly
// its mode's declared metrics.
func TestWorkloadsRunEndToEnd(t *testing.T) {
	for _, w := range workloadList {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if err := checkDeclared(trace, out.metrics); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d", w, trace, out.attempted, out.failed)
			}
		}
	}
}

// The correctness gate rejects a corrupted answer of every suite problem.
func TestGateRejectsCorruptedAnswer(t *testing.T) {
	ctx := context.Background()
	eng := gbbs.New(gbbs.WithThreads(2))
	defer eng.Close()
	in, err := buildInput(ctx, eng, inputSpec{kind: "rmat", scale: 9, factor: 8}, inputSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := runPass(ctx, eng, in, suiteKeys, inputSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range suiteKeys {
		if err := checkSolution(in, k, vals[k]); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", k, err)
		}
		bad := corrupt(t, in, k, vals[k])
		if err := checkSolution(in, k, bad); err == nil {
			t.Errorf("%s: corrupted answer accepted", k)
		}
	}
	ref, err := digestAll(in, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePass(in, "cc", corrupt(t, in, "cc", vals["cc"]), vals["cc"], ref["cc"]); err == nil {
		t.Error("a pass whose output differs from the first pass's was accepted")
	}
}

// corrupt returns a wrong copy of an output.
func corrupt(t *testing.T, in suiteInput, key string, v any) any {
	g := in.graphFor(key)
	// A vertex with a neighbour, for the edits that need one.
	var u, w uint32
	for x := 0; x < g.N(); x++ {
		found := false
		g.OutNgh(uint32(x), func(y uint32, _ int32) bool {
			if y != uint32(x) {
				u, w, found = uint32(x), y, true
			}
			return !found
		})
		if found {
			break
		}
	}
	switch x := v.(type) {
	case []uint32:
		c := append([]uint32(nil), x...)
		switch key {
		case "ldd":
			c[u] = uint32(len(c)) // a label that is no vertex, let alone a center
		case "cc", "scc":
			for i := range c {
				if c[i] != c[u] {
					c[u] = c[i] // moves u into another class
					break
				}
			}
		case "coloring":
			c[u] = c[w]
		case "setcover":
			c = c[:0]
		default:
			c[u]++
		}
		return c
	case []int64:
		c := append([]int64(nil), x...)
		c[u]++
		return c
	case []float64:
		c := append([]float64(nil), x...)
		c[u] += 1
		return c
	case []bool:
		c := append([]bool(nil), x...)
		c[u], c[w] = true, true // two adjacent vertices in the set
		return c
	case []gbbs.WEdge:
		if key == "msf" {
			return x[1:]
		}
		return append(append([]gbbs.WEdge(nil), x...), x[0]) // a vertex matched twice
	case int64:
		return x + 1
	case *gbbs.Bicc:
		c := *x
		c.Labels = make([]uint32, len(x.Labels)) // every edge in one component
		return &c
	}
	t.Fatalf("%s: cannot corrupt %T", key, v)
	return nil
}

// A refused request counts as failed, never as a latency.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, "serve-read", false)
	lg := newReadServer(cfg)
	defer lg.close()
	cat := catalogue(cfg)
	ops := []*op{
		{due: 0, method: "POST", path: "/v1/run", body: readBody(cat[0], "gold", 1), algo: cat[0].algo},
		{due: time.Millisecond, method: "POST", path: "/v1/run", body: readBody(catItem{source: cat[0].source, algo: "no-such-problem"}, "gold", 1), algo: "no-such-problem"},
		{due: 2 * time.Millisecond, method: "POST", path: "/v1/run", body: readBody(cat[0], "bad tenant!", 1), algo: cat[0].algo},
	}
	p := lg.openLoop(ops, 0, false)
	m := make(metrics)
	attempted, failed := p.setEndToEnd(m, cfg.slo)
	if attempted != 3 || failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 3 and 2", attempted, failed)
	}
	lat, _, _, within := p.readLatencies(cfg.slo)
	if len(lat) != 1 || within != 1 {
		t.Fatalf("%d latencies recorded, %d within the limit; want 1 and 1", len(lat), within)
	}
	if got := m["slo_frac"].Value; got != 1.0/3 {
		t.Fatalf("slo_frac %v, want 1/3", got)
	}
}

// A served answer that disagrees with the in-process run is rejected.
func TestServeGateRejectsWrongSummary(t *testing.T) {
	cfg := tinyConfig(t, "serve-read", false)
	lg := newReadServer(cfg)
	defer lg.close()
	cat := catalogue(cfg)
	p := lg.openLoop([]*op{{method: "POST", path: "/v1/run", body: readBody(cat[0], "gold", 1), algo: cat[0].algo}}, 0, false)
	if err := checkServeRead(cfg, cat, p); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	p.ops[0].run.Result.Summary += " (corrupted)"
	if err := checkServeRead(cfg, cat, p); err == nil {
		t.Fatal("corrupted answer accepted")
	}
}
