package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The harness tests run every table/figure generator at a tiny scale and
// check the output structure, so the reproduction commands cannot silently
// rot.

func tinyConfig() Config {
	return Config{Scale: 9, Seed: 1, SkipSingle: true}
}

func TestSuiteCoversFifteenProblems(t *testing.T) {
	s := Suite(1)
	if len(s) != 15 {
		t.Fatalf("suite has %d problems, want 15 (Table 1)", len(s))
	}
	names := map[string]bool{}
	for _, a := range s {
		names[a.Name] = true
	}
	for _, want := range []string{
		"Breadth-First Search (BFS)", "Connectivity", "Biconnectivity",
		"Strongly Connected Components (SCC)", "Minimum Spanning Forest (MSF)",
		"k-core", "Triangle Counting (TC)",
	} {
		if !names[want] {
			t.Fatalf("suite missing %q", want)
		}
	}
}

func TestRunSuiteProducesRows(t *testing.T) {
	in := MakeRMATInput("t", 9, 8, false, 1)
	rows := RunSuite(in, 1, 2, false)
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Skipped {
			t.Fatalf("row %s skipped on a full input", r.Algo)
		}
		if r.TP <= 0 || r.T1 <= 0 {
			t.Fatalf("row %s has non-positive time", r.Algo)
		}
	}
}

func TestRunSuiteSkipsDirectedWithoutDir(t *testing.T) {
	in := MakeTorusInput(5, 1)
	rows := RunSuite(in, 1, 2, true)
	sccSkipped := false
	for _, r := range rows {
		if strings.Contains(r.Algo, "SCC") && r.Skipped {
			sccSkipped = true
		}
	}
	if !sccSkipped {
		t.Fatal("SCC not skipped on torus input (paper marks it ~)")
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf, tinyConfig())
	out := buf.String()
	for _, want := range []string{"Table 2", "Hyperlink2012-sim", "Breadth-First Search", "Triangle Counting"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable4And5Output(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, tinyConfig())
	if !strings.Contains(buf.String(), "3D-Torus") || !strings.Contains(buf.String(), "LiveJournal-sim") {
		t.Fatalf("Table 4 missing inputs:\n%s", buf.String())
	}
	buf.Reset()
	Table5(&buf, tinyConfig())
	for _, g := range []string{"ClueWeb-sim", "Hyperlink2014-sim", "Hyperlink2012-sim"} {
		if !strings.Contains(buf.String(), g) {
			t.Fatalf("Table 5 missing %s", g)
		}
	}
}

func TestTable6Output(t *testing.T) {
	var buf bytes.Buffer
	Table6(&buf, tinyConfig())
	out := buf.String()
	for _, want := range []string{"k-core (histogram)", "k-core (fetch-and-add)", "weighted BFS (blocked)", "weighted BFS (unblocked)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 6 missing %q:\n%s", want, out)
		}
	}
}

func TestTable7Output(t *testing.T) {
	var buf bytes.Buffer
	Table7(&buf, tinyConfig())
	out := buf.String()
	for _, want := range []string{"FlashGraph", "Mosaic", "Stergiou", "This repro", "GBBS (paper)", "Connectivity (LDD contraction, ablation)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 7 missing %q", want)
		}
	}
}

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	Table3(&buf, Config{Scale: 10, Seed: 1})
	out := buf.String()
	for _, want := range []string{"Num. Triangles", "kmax", "Strongly Connected"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 3 missing %q", want)
		}
	}
}

func TestFigure1Output(t *testing.T) {
	var buf bytes.Buffer
	Figure1(&buf, tinyConfig())
	out := buf.String()
	for _, want := range []string{"MIS", "BFS", "BC", "Graph Coloring", "edges/sec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 1 missing %q", want)
		}
	}
}

func TestCompressionReportOutput(t *testing.T) {
	var buf bytes.Buffer
	CompressionReport(&buf, tinyConfig())
	if !strings.Contains(buf.String(), "bytes/edge") {
		t.Fatal("compression report missing ratio column")
	}
}

func TestMeasureRespectsVariants(t *testing.T) {
	in := MakeTorusInput(4, 1)
	var scc Algo
	for _, a := range Suite(1) {
		if strings.Contains(a.Name, "SCC") {
			scc = a
		}
	}
	if d := Measure(in, scc, 2); d != 0 {
		t.Fatal("Measure ran a directed problem without a directed input")
	}
}

func TestMeasurePanicsOnRunError(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "nosuch") || !strings.Contains(msg, "unknown algorithm") {
			t.Fatalf("Measure of a failing run: recovered %q, want a panic naming the key and the error", msg)
		}
	}()
	Measure(MakeTorusInput(4, 1), Algo{Key: "nosuch"}, 1)
}

func TestMeasureIncremental(t *testing.T) {
	res := MeasureIncremental(12, 200, 2, 1)
	if res.StaticNS <= 0 || res.IncrementalNS <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.Scale != 12 || res.BatchEdges != 200 {
		t.Fatalf("echoed parameters wrong: %+v", res)
	}
	// At any realistic scale the incremental path (O(batch)) beats the
	// static rebuild (O(graph)); MeasureIncremental itself asserts the two
	// labellings agree.
	if res.IncrementalNS >= res.StaticNS {
		t.Fatalf("incremental (%dns) not faster than static (%dns)", res.IncrementalNS, res.StaticNS)
	}
}

func TestWriteJSONIncludesIncremental(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "test", Config{Scale: 9, Seed: 1, SkipSingle: true, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"incremental"`, `"static_ns"`, `"incremental_ns"`, `"batch_edges"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON report missing %s:\n%s", want, out)
		}
	}
}
