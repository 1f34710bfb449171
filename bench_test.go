package repro

// Benchmarks mirroring the paper's evaluation (§6), one family per table or
// figure. Graph construction is cached across benchmarks; sizes default to
// a laptop-friendly scale (override the harness scale with cmd/gbbs-bench
// -scale for larger runs).
//
//	BenchmarkTable2   — 15 problems on the compressed Hyperlink2012 stand-in
//	BenchmarkTable4   — 15 problems on the four uncompressed inputs
//	BenchmarkTable5   — 15 problems on the three compressed web stand-ins
//	BenchmarkTable6   — k-core histogram/fetch-and-add and wBFS blocked/flat
//	BenchmarkTable7   — the problems of the cross-system comparison rows
//	BenchmarkFigure1  — MIS/BFS/BC/coloring over the 3D-torus family
//	BenchmarkTable3   — the statistics suite (Tables 3, 8-13)

import (
	"sync"
	"testing"

	"repro/gbbs"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/stats"
)

const benchScale = 14 // log2 vertices of the largest benchmark graph

var (
	inputOnce sync.Once
	table2In  bench.Input
	table4Ins []bench.Input
	table5Ins []bench.Input
	torusFam  []*graph.CSR
	ablationG *graph.CSR
)

func inputs() {
	inputOnce.Do(func() {
		table2In = bench.MakeRMATInput("Hyperlink2012-sim", benchScale, 16, true, 2012)
		table4Ins = []bench.Input{
			bench.MakeRMATInput("LiveJournal-sim", benchScale-2, 14, false, 1),
			bench.MakeRMATInput("com-Orkut-sim", benchScale-3, 60, false, 2),
			bench.MakeRMATInput("Twitter-sim", benchScale-1, 28, false, 3),
			bench.MakeTorusInput(1<<uint((benchScale-1)/3), 4),
		}
		table5Ins = []bench.Input{
			bench.MakeRMATInput("ClueWeb-sim", benchScale-2, 24, true, 5),
			bench.MakeRMATInput("Hyperlink2014-sim", benchScale-1, 20, true, 6),
			bench.MakeRMATInput("Hyperlink2012-sim", benchScale, 16, true, 7),
		}
		for side := 8; side <= 1<<uint(benchScale/3); side *= 2 {
			torusFam = append(torusFam, gen.BuildTorus3D(parallel.Default, side, false, 9))
		}
		ablationG = gen.BuildRMAT(parallel.Default, benchScale, 16, true, true, 66)
	})
}

// runSuite registers one sub-benchmark per problem of the paper's suite on
// the given input, dispatching through the registry on one shared engine.
func runSuite(b *testing.B, in bench.Input) {
	eng := gbbs.New(gbbs.WithSeed(1))
	for _, a := range bench.Suite(1) {
		if (a.Directed && in.Dir == nil) || (a.Weighted && !in.Weighted) {
			continue
		}
		g := in.Sym
		if a.Directed {
			g = in.Dir
		}
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := a.Run(eng, g); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(g.M()))
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	inputs()
	runSuite(b, table2In)
}

func BenchmarkTable4(b *testing.B) {
	inputs()
	for _, in := range table4Ins {
		b.Run(in.Name, func(b *testing.B) { runSuite(b, in) })
	}
}

func BenchmarkTable5(b *testing.B) {
	inputs()
	for _, in := range table5Ins {
		b.Run(in.Name, func(b *testing.B) { runSuite(b, in) })
	}
}

func BenchmarkTable6(b *testing.B) {
	inputs()
	g := ablationG
	b.Run("k-core-histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.KCore(parallel.Default, g)
		}
	})
	b.Run("k-core-fetch-and-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.KCoreFetchAndAdd(parallel.Default, g)
		}
	})
	b.Run("wBFS-blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.WeightedBFS(parallel.Default, g, 0)
		}
	})
	b.Run("wBFS-unblocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.WeightedBFSUnblocked(parallel.Default, g, 0)
		}
	})
}

func BenchmarkTable7(b *testing.B) {
	inputs()
	in := table2In
	cases := []struct {
		name string
		f    func()
	}{
		{"BFS-directed", func() { core.BFS(parallel.Default, in.Dir, 0) }},
		{"SSSP", func() { core.WeightedBFS(parallel.Default, in.Sym, 0) }},
		{"BC-directed", func() { core.BC(parallel.Default, in.Dir, 0) }},
		{"Connectivity", func() { core.UnionFindCC(parallel.Default, in.Sym) }},
		{"Connectivity-LDD-contraction-ablation", func() { core.Connectivity(parallel.Default, in.Sym, 0.2, 1) }},
		{"SCC", func() { core.SCC(parallel.Default, in.Dir, 1, core.SCCOpts{}) }},
		{"k-core", func() { core.KCore(parallel.Default, in.Sym) }},
		{"TC", func() { core.TriangleCount(parallel.Default, in.Sym) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
	}
}

func BenchmarkFigure1(b *testing.B) {
	inputs()
	algos := []struct {
		name string
		f    func(g graph.Graph)
	}{
		{"MIS", func(g graph.Graph) { core.MIS(parallel.Default, g, 1) }},
		{"BFS", func(g graph.Graph) { core.BFS(parallel.Default, g, 0) }},
		{"BC", func(g graph.Graph) { core.BC(parallel.Default, g, 0) }},
		{"GraphColoring", func(g graph.Graph) { core.Coloring(parallel.Default, g, 1) }},
	}
	for _, g := range torusFam {
		for _, a := range algos {
			b.Run(a.name+"/n="+itoa(g.N()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.f(g)
				}
				b.SetBytes(int64(g.M())) // throughput = edges/sec, Figure 1's y-axis
			})
		}
	}
}

func BenchmarkTable3Stats(b *testing.B) {
	inputs()
	g := table4Ins[0].Sym
	b.Run("stats-sym", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.ComputeSym(parallel.Default, "bench", g, stats.Options{Seed: 1, SkipTriangles: true})
		}
	})
	b.Run("effective-diameter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.EffectiveDiameter(parallel.Default, g, 2, 1)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
