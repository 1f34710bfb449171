// Package bench is the harness that regenerates every table and figure of
// the paper's evaluation (§6) at a configurable scale: the 15-problem
// suites of Tables 2/4/5, the optimization ablations of Table 6, the
// cross-system comparison layout of Table 7, the graph statistics of
// Tables 3 and 8-13, and the throughput-vs-size sweep of Figure 1. Both
// cmd/gbbs-bench and the root testing.B benchmarks drive it.
//
// The suite is derived from the gbbs algorithm registry (the entries with
// PaperRow metadata), so newly registered algorithms with paper rows appear
// here automatically, and each measurement runs on its own isolated
// gbbs.Engine rather than mutating a process-global thread count.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/gbbs"
	"repro/internal/graph"
)

// buildGraph materializes one benchmark input through a dedicated build
// engine (full hardware parallelism; inputs are deterministic in the seed,
// so the thread count cannot change what is measured). Panics on build
// errors: benchmark inputs are programmer-specified.
func buildGraph(src gbbs.GraphSource, transforms ...gbbs.Transform) graph.Graph {
	eng := gbbs.New()
	defer eng.Close()
	g, err := eng.Build(context.Background(), src, transforms...)
	if err != nil {
		panic(fmt.Sprintf("bench: building %s: %v", src, err))
	}
	return g
}

// Algo is one benchmark problem of the paper's suite: the registry key it
// dispatches through, its Table 2/4/5 row label, and the input variant it
// needs. Directed problems receive the directed variant of the input.
type Algo struct {
	Key      string // gbbs registry name ("bfs", "kcore", ...)
	Name     string // the paper's table row label
	Directed bool   // run on the directed version (the paper's SCC rows)
	Weighted bool   // requires edge weights
	Seed     uint64
}

// Run executes the problem once on g using engine e.
func (a Algo) Run(e *gbbs.Engine, g graph.Graph) error {
	_, err := e.Run(context.Background(), a.Key, gbbs.Request{Graph: g, Seed: gbbs.Ptr(a.Seed)})
	return err
}

// Suite returns the paper's 15 problems in Table 2/4/5 row order, derived
// from the registry entries carrying PaperRow metadata. The parameters the
// paper uses (β=0.2 for LDD-based algorithms, ε=0.01 for set cover, source
// 0 for the SSSP problems) are the registry defaults.
func Suite(seed uint64) []Algo {
	var out []Algo
	for _, a := range gbbs.PaperSuite() {
		out = append(out, Algo{
			Key:      a.Name,
			Name:     a.PaperRow,
			Directed: a.Directed,
			Weighted: a.NeedsWeights,
			Seed:     seed,
		})
	}
	return out
}

// Input bundles the variants of one benchmark graph: the symmetric
// (optionally weighted) version the undirected problems run on, and the
// directed version for SCC. Compressed selects parallel-byte storage, as in
// Table 5.
type Input struct {
	Name     string
	Sym      graph.Graph // symmetric, weighted when available
	Dir      graph.Graph // directed variant (nil to skip directed problems)
	Weighted bool
}

// MakeRMATInput builds an RMAT-based input at the given scale, in the
// requested representation, through the engine-scoped build pipeline.
func MakeRMATInput(name string, scale, edgeFactor int, compressed bool, seed uint64) Input {
	symT := []gbbs.Transform{gbbs.Symmetrize(), gbbs.PaperWeights(seed)}
	var dirT []gbbs.Transform
	if compressed {
		symT = append(symT, gbbs.EncodeCompressed(0))
		dirT = append(dirT, gbbs.EncodeCompressed(0))
	}
	return Input{
		Name:     name,
		Sym:      buildGraph(gbbs.RMAT(scale, edgeFactor, seed), symT...),
		Dir:      buildGraph(gbbs.RMAT(scale, edgeFactor, seed), dirT...),
		Weighted: true,
	}
}

// MakeTorusInput builds the 3D-Torus input (symmetric only; the paper marks
// SCC "~" on it).
func MakeTorusInput(side int, seed uint64) Input {
	return Input{
		Name:     fmt.Sprintf("3D-Torus (side=%d)", side),
		Sym:      buildGraph(gbbs.Torus(side), gbbs.Symmetrize(), gbbs.PaperWeights(seed)),
		Weighted: true,
	}
}

// Measure times one run of a on the appropriate variant of in with the
// given worker count. Each call runs on a fresh isolated engine, so
// concurrent measurements (or a measurement alongside serving traffic)
// never interfere through a shared thread count. It returns 0 when in lacks
// the variant a needs (no directed graph, or no weights), and panics when
// the run itself fails: a failed run has no time, and recording 0 would
// pass it off as one.
func Measure(in Input, a Algo, threads int) time.Duration {
	g := in.Sym
	if a.Directed {
		if in.Dir == nil {
			return 0
		}
		g = in.Dir
	}
	if a.Weighted && !in.Weighted {
		return 0
	}
	e := gbbs.New(gbbs.WithThreads(threads), gbbs.WithSeed(a.Seed))
	defer e.Close()
	res, err := e.Run(context.Background(), a.Key, gbbs.Request{Graph: g, Seed: gbbs.Ptr(a.Seed)})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", a.Key, err))
	}
	return res.Elapsed
}

// Row is one line of a Table 2/4/5-style report.
type Row struct {
	Algo    string
	T1      time.Duration // single-thread time, the paper's (1)
	TP      time.Duration // all-thread time, the paper's (72h)
	Speedup float64       // the paper's (SU)
	Skipped bool
}

// RunSuite measures every problem on one input at 1 thread and P threads.
// skipSingle skips the single-thread pass (useful at large scales).
func RunSuite(in Input, seed uint64, threads int, skipSingle bool) []Row {
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	var rows []Row
	for _, a := range Suite(seed) {
		r := Row{Algo: a.Name}
		if (a.Directed && in.Dir == nil) || (a.Weighted && !in.Weighted) {
			r.Skipped = true
			rows = append(rows, r)
			continue
		}
		r.TP = Measure(in, a, threads)
		if !skipSingle {
			r.T1 = Measure(in, a, 1)
			if r.TP > 0 {
				r.Speedup = float64(r.T1) / float64(r.TP)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// WriteRows prints rows in the paper's (1) / (72h) / (SU) column layout.
func WriteRows(w io.Writer, title string, rows []Row, threads int) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-45s %12s %12s %8s\n", "Problem", "(1)", fmt.Sprintf("(%dt)", threads), "(SU)")
	for _, r := range rows {
		if r.Skipped {
			fmt.Fprintf(w, "%-45s %12s %12s %8s\n", r.Algo, "~", "~", "~")
			continue
		}
		t1 := "—"
		su := "—"
		if r.T1 > 0 {
			t1 = fmtDur(r.T1)
			su = fmt.Sprintf("%.1f", r.Speedup)
		}
		fmt.Fprintf(w, "%-45s %12s %12s %8s\n", r.Algo, t1, fmtDur(r.TP), su)
	}
	fmt.Fprintln(w)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
